// Lightweight columnar compression codecs for the archive partition tier
// (ROADMAP: "Compressed archive partitions").
//
// AIQL's event columns are time-ordered and near-monotonic: start_time is
// sorted within a partition, ids and sequence numbers grow almost linearly,
// and the categorical columns (op, object_type, agent_id, entity indexes)
// live in narrow value ranges. Two integer codecs cover those shapes:
//
//   kFor       frame-of-reference: each block stores its minimum and packs
//              (v - min) at the block's exact bit width. Narrow-domain
//              columns (op: 4 bits, agent ids, entity indexes) collapse to
//              a few bits per value.
//   kDeltaFor  delta + FOR over the deltas: sorted or near-monotonic
//              columns (start_time, id, seq) have tiny deltas, so the
//              packed width approaches log2(typical gap). The FOR base is
//              the block's minimum delta, so occasional negative deltas
//              (equal-timestamp rows replayed with descending ids) merely
//              widen the frame slightly instead of blowing it up — no
//              zigzag transform is involved.
//
// EncodeIntsAdaptive encodes with both and keeps the smaller — per column,
// per partition, no tuning knob. Blocks are kEncodingBlock values, so decode
// is a tight unpack loop and a whole column decodes in one pass
// (the archive tier decodes per column, on demand; see partition.h).
#ifndef AIQL_SRC_STORAGE_ENCODING_H_
#define AIQL_SRC_STORAGE_ENCODING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aiql {

inline constexpr size_t kEncodingBlock = 1024;

enum class IntCodec : uint8_t {
  kFor = 0,       // FOR bit-packing of raw values
  kDeltaFor = 1,  // FOR bit-packing of consecutive deltas (min-delta base)
};

const char* IntCodecName(IntCodec codec);

// One encoded integer column. Values are recovered exactly (the codecs are
// lossless for the full int64 range, including INT64_MIN/MAX).
struct EncodedInts {
  struct Block {
    int64_t base = 0;          // FOR base: min value (kFor) or min delta (kDeltaFor)
    int64_t first = 0;         // first decoded value of the block (delta anchor)
    uint64_t word_offset = 0;  // this block's packed words start at words[word_offset]
    uint8_t width = 0;         // bits per packed value (0 = all values equal base)
  };

  IntCodec codec = IntCodec::kFor;
  uint32_t count = 0;
  std::vector<Block> blocks;
  std::vector<uint64_t> words;

  size_t EncodedBytes() const {
    return sizeof(EncodedInts) + blocks.size() * sizeof(Block) + words.size() * sizeof(uint64_t);
  }
};

EncodedInts EncodeInts(const int64_t* v, size_t n, IntCodec codec);
// Encodes with both codecs and returns whichever packs smaller.
EncodedInts EncodeIntsAdaptive(const int64_t* v, size_t n);

namespace encoding_detail {

inline uint64_t Mask(uint8_t width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

// Fixed-width read at absolute bit offset; values may straddle word pairs.
inline uint64_t ReadBits(const uint64_t* words, uint64_t bit, uint8_t width) {
  if (width == 0) {
    return 0;
  }
  const size_t word = static_cast<size_t>(bit >> 6);
  const unsigned off = static_cast<unsigned>(bit & 63);
  uint64_t v = words[word] >> off;
  if (off + width > 64) {
    v |= words[word + 1] << (64 - off);
  }
  return v & Mask(width);
}

}  // namespace encoding_detail

// Decodes the full column directly into `out` (room for e.count values of any
// integer/enum type) — the archive tier's per-column decode path, templated
// so narrow columns skip a widened int64 detour.
template <typename T>
void DecodeIntsInto(const EncodedInts& e, T* out) {
  using encoding_detail::ReadBits;
  for (size_t blk = 0; blk < e.blocks.size(); ++blk) {
    const EncodedInts::Block& b = e.blocks[blk];
    const size_t lo = blk * kEncodingBlock;
    const size_t m = std::min(kEncodingBlock, static_cast<size_t>(e.count) - lo);
    const uint64_t* words = e.words.data();
    uint64_t bit = b.word_offset * 64;
    if (e.codec == IntCodec::kFor) {
      const uint64_t base = static_cast<uint64_t>(b.base);
      for (size_t i = 0; i < m; ++i) {
        out[lo + i] = static_cast<T>(base + ReadBits(words, bit, b.width));
        bit += b.width;
      }
    } else {
      const uint64_t base = static_cast<uint64_t>(b.base);
      uint64_t prev = static_cast<uint64_t>(b.first);
      out[lo] = static_cast<T>(prev);
      for (size_t i = 1; i < m; ++i) {
        prev += base + ReadBits(words, bit, b.width);
        bit += b.width;
        out[lo + i] = static_cast<T>(prev);
      }
    }
  }
}

void DecodeInts(const EncodedInts& e, int64_t* out);

// Typed column convenience wrappers: values round-trip through int64 (every
// event column type is a narrower integer or enum).
template <typename T>
EncodedInts EncodeColumn(const std::vector<T>& v) {
  std::vector<int64_t> widened(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    widened[i] = static_cast<int64_t>(v[i]);
  }
  return EncodeIntsAdaptive(widened.data(), widened.size());
}

template <typename T>
void DecodeColumn(const EncodedInts& e, std::vector<T>* out) {
  out->resize(e.count);
  DecodeIntsInto(e, out->data());
}

}  // namespace aiql

#endif  // AIQL_SRC_STORAGE_ENCODING_H_
