#include "src/storage/encoding.h"

#include <algorithm>
#include <bit>

namespace aiql {
namespace {

// All arithmetic runs in uint64 with wrap-around, so the codecs are exact for
// the entire int64 domain: a delta of INT64_MAX - INT64_MIN does not fit in
// int64, but its mod-2^64 representation added back with wrap reproduces the
// original value bit-for-bit (C++20 guarantees two's complement).
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
int64_t S(uint64_t v) { return static_cast<int64_t>(v); }

uint8_t BitsNeeded(uint64_t x) {
  return static_cast<uint8_t>(x == 0 ? 0 : 64 - std::countl_zero(x));
}

using encoding_detail::Mask;

// Appends fixed-width values to a word vector. Each block starts word-aligned
// (word_offset in the block directory), so blocks stay independently
// addressable at the cost of < 8 bytes of padding per 1024 values.
class BitWriter {
 public:
  explicit BitWriter(std::vector<uint64_t>* words) : words_(words) {}

  uint64_t BeginBlock() {
    bit_ = words_->size() * 64;
    return words_->size();
  }

  void Append(uint64_t v, uint8_t width) {
    if (width == 0) {
      return;
    }
    v &= Mask(width);
    const size_t word = static_cast<size_t>(bit_ >> 6);
    const unsigned off = static_cast<unsigned>(bit_ & 63);
    if (words_->size() <= word + 1) {
      words_->resize(word + 2, 0);
    }
    (*words_)[word] |= v << off;
    if (off + width > 64) {
      (*words_)[word + 1] |= v >> (64 - off);
    }
    bit_ += width;
  }

  // Drops a trailing all-zero spare word the resize in Append may have left.
  void Finish() {
    const size_t used = static_cast<size_t>((bit_ + 63) / 64);
    if (words_->size() > used) {
      words_->resize(used);
    }
  }

 private:
  std::vector<uint64_t>* words_;
  uint64_t bit_ = 0;
};

}  // namespace

const char* IntCodecName(IntCodec codec) {
  switch (codec) {
    case IntCodec::kFor:
      return "for";
    case IntCodec::kDeltaFor:
      return "delta-for";
  }
  return "?";
}

EncodedInts EncodeInts(const int64_t* v, size_t n, IntCodec codec) {
  EncodedInts e;
  e.codec = codec;
  e.count = static_cast<uint32_t>(n);
  e.blocks.reserve((n + kEncodingBlock - 1) / kEncodingBlock);
  BitWriter writer(&e.words);
  for (size_t lo = 0; lo < n; lo += kEncodingBlock) {
    const size_t m = std::min(kEncodingBlock, n - lo);
    EncodedInts::Block b;
    b.word_offset = writer.BeginBlock();
    b.first = v[lo];
    if (codec == IntCodec::kFor) {
      int64_t mn = v[lo], mx = v[lo];
      for (size_t i = 1; i < m; ++i) {
        mn = std::min(mn, v[lo + i]);
        mx = std::max(mx, v[lo + i]);
      }
      b.base = mn;
      b.width = BitsNeeded(U(mx) - U(mn));
      for (size_t i = 0; i < m; ++i) {
        writer.Append(U(v[lo + i]) - U(mn), b.width);
      }
    } else {
      // Delta codec: the block's first value anchors in the directory; the
      // remaining m-1 values pack as FOR'd consecutive deltas.
      if (m > 1) {
        int64_t mn = S(U(v[lo + 1]) - U(v[lo]));
        int64_t mx = mn;
        for (size_t i = 2; i < m; ++i) {
          int64_t d = S(U(v[lo + i]) - U(v[lo + i - 1]));
          mn = std::min(mn, d);
          mx = std::max(mx, d);
        }
        b.base = mn;
        b.width = BitsNeeded(U(mx) - U(mn));
        for (size_t i = 1; i < m; ++i) {
          int64_t d = S(U(v[lo + i]) - U(v[lo + i - 1]));
          writer.Append(U(d) - U(mn), b.width);
        }
      }
    }
    e.blocks.push_back(b);
  }
  writer.Finish();
  return e;
}

EncodedInts EncodeIntsAdaptive(const int64_t* v, size_t n) {
  EncodedInts plain = EncodeInts(v, n, IntCodec::kFor);
  EncodedInts delta = EncodeInts(v, n, IntCodec::kDeltaFor);
  return delta.EncodedBytes() < plain.EncodedBytes() ? std::move(delta) : std::move(plain);
}

void DecodeInts(const EncodedInts& e, int64_t* out) { DecodeIntsInto(e, out); }

}  // namespace aiql
