// Seeded mutation fuzzing of the audit-log parser. Lines of a serialized
// store (SerializeAuditLog) are mutated: truncated, fields dropped,
// duplicated or case-flipped, numbers swapped for huge or negative ones,
// quotes left open, separators turned into tabs, CR line ends and embedded
// NULs. Every line of a mutated log must end up in exactly one bucket of the
// IngestReport (ingested, an IngestError with its line, or skipped), an
// untouched record must still be ingested, and a rejected record must intern
// nothing. The sanitizer CI job runs this under ASan + UBSan.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "src/ingest/audit_log.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/util/string_utils.h"
#include "src/workload/workload.h"

namespace aiql {
namespace {

constexpr int kMutantLogs = 2000;
constexpr int kLinesPerLog = 12;

// The record lines of a small generated store's audit log.
std::vector<std::string> CorpusLines() {
  ScenarioConfig config;
  config.trace.num_hosts = 6;  // the fewest the scenario's roles need
  config.trace.events_per_host_per_day = 50;
  config.trace.num_days = 2;
  Database db;
  Workload(config, &db).Build();
  db.Finalize();
  std::vector<std::string> lines;
  for (std::string& line : Split(SerializeAuditLog(db), '\n')) {
    if (line.rfind("EVENT ", 0) == 0) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

// Splits a record at the spaces outside quotes: the keyword, then fields.
std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> words(1);
  bool quoted = false;
  for (char c : line) {
    if (c == ' ' && !quoted) {
      words.emplace_back();
      continue;
    }
    quoted ^= c == '"';
    words.back() += c;
  }
  return words;
}

const char* const kOddNumbers[] = {
    "99999999999999999999", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808",  "4294967296",          "-1",
    "65536",                "2147483648",          "-2147483649",
    "253402300800000",      "",                    "0x10",
    "1e3",                  "+5",                  "7 ",
};

char FlipCase(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return static_cast<char>(std::isupper(u) ? std::tolower(u) : std::toupper(u));
}

std::string Mutate(const std::string& line, Rng* rng) {
  std::vector<std::string> words = Words(line);
  std::string out;
  const int edits = static_cast<int>(rng->Range(1, 3));
  for (int e = 0; e < edits; ++e) {
    // Field edits pick among the fields after the keyword.
    const size_t i = 1 + rng->Below(words.size() - 1);
    std::string& w = words[i];
    const size_t eq = w.find('=');
    switch (rng->Below(9)) {
      case 0:  // drop a field
        if (words.size() > 2) {
          words.erase(words.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 1:  // duplicate a field, maybe in another case
        words.push_back(rng->Chance(0.5) ? w : ToLower(w));
        break;
      case 2:  // flip the case of a key (or, rarely, the keyword)
        for (size_t k = 0; k < (eq == std::string::npos ? w.size() : eq); ++k) {
          w[k] = FlipCase(w[k]);
        }
        if (rng->Chance(0.1)) {
          words[0] = "event";
        }
        break;
      case 3:  // a huge, negative or malformed number
        if (eq != std::string::npos) {
          w = w.substr(0, eq + 1) + kOddNumbers[rng->Below(std::size(kOddNumbers))];
        }
        break;
      case 4:  // an unterminated quote
        if (eq != std::string::npos) {
          w = w.substr(0, eq + 1) + "\"" + w.substr(eq + 1);
          if (w.back() == '"' && w.size() > eq + 2) {
            w.pop_back();
          }
        }
        break;
      case 5:  // drop the separator before a field, or glue it to the keyword
        w.insert(0, rng->Chance(0.5) ? "\t" : "");
        if (rng->Chance(0.2)) {
          words[0] += words[1];
          words.erase(words.begin() + 1);
        }
        break;
      case 6:  // an embedded NUL
        w.insert(rng->Below(w.size() + 1), 1, '\0');
        break;
      default:  // a bare word without '='
        w = w.substr(0, eq == std::string::npos ? w.size() : eq);
        break;
    }
    if (words.size() < 2) {
      break;
    }
  }
  for (size_t i = 0; i < words.size(); ++i) {
    // Separators: mostly a space, sometimes a tab.
    out += (i == 0 ? "" : rng->Chance(0.8) ? " " : "\t") + words[i];
  }
  if (rng->Chance(0.2)) {
    out.resize(rng->Below(out.size() + 1));  // a truncated line
  }
  return out;
}

TEST(IngestFuzzTest, EveryLineIsIngestedRejectedOrSkipped) {
  const std::vector<std::string> corpus = CorpusLines();
  ASSERT_GT(corpus.size(), 100u);
  Rng rng(20170102);
  size_t ingested = 0;
  size_t rejected = 0;
  for (int m = 0; m < kMutantLogs; ++m) {
    // A log of corpus lines, most of them mutated, with comment, blank and
    // CR-ended lines between; the final newline is optional.
    std::string text;
    std::set<size_t> untouched;  // 1-based lines that are corpus records
    size_t lines = 0;
    for (int l = 0; l < kLinesPerLog; ++l) {
      std::string line = corpus[rng.Below(corpus.size())];
      const uint64_t kind = rng.Below(10);
      if (kind == 0) {
        line = rng.Chance(0.5) ? "# comment" : " \t ";
      } else if (kind <= 3) {
        untouched.insert(lines + 1);
      } else {
        line = Mutate(line, &rng);
      }
      if (rng.Chance(0.15)) {
        line += '\r';
      }
      text += line;
      ++lines;
      if (l + 1 < kLinesPerLog || rng.Chance(0.5)) {
        text += '\n';
      }
    }
    if (text.back() == '\n') {
      ++lines;  // the empty piece after the final newline
    }

    Database db;
    const IngestReport report = AuditLogParser(&db).IngestText(text);
    ASSERT_EQ(report.records_ingested + report.errors.size() + report.lines_skipped, lines)
        << text;
    EXPECT_EQ(db.num_events(), report.records_ingested);
    size_t previous = 0;
    for (const IngestError& error : report.errors) {
      EXPECT_GT(error.line_number, previous) << error.message;
      EXPECT_LE(error.line_number, lines) << error.message;
      EXPECT_FALSE(error.message.empty());
      EXPECT_EQ(untouched.count(error.line_number), 0u)
          << "an untouched record was rejected: " << error.message;
      previous = error.line_number;
    }

    // Each line again on its own: a record is ingested exactly when it was
    // not reported, and a rejected one leaves the catalog empty.
    const std::vector<std::string> pieces = Split(text, '\n');
    ASSERT_EQ(pieces.size(), lines);
    std::set<size_t> error_lines;
    for (const IngestError& error : report.errors) {
      error_lines.insert(error.line_number);
    }
    for (size_t l = 0; l < pieces.size(); ++l) {
      Database alone;
      const Status s = AuditLogParser(&alone).IngestLine(pieces[l]);
      EXPECT_EQ(s.ok(), error_lines.count(l + 1) == 0) << s.message();
      if (!s.ok()) {
        EXPECT_EQ(alone.catalog().total_entities(), 0u) << s.message();
        EXPECT_EQ(alone.num_events(), 0u);
      }
    }
    ingested += report.records_ingested;
    rejected += report.errors.size();
  }
  // The mutants reach both outcomes in bulk.
  EXPECT_GT(ingested, static_cast<size_t>(kMutantLogs));
  EXPECT_GT(rejected, static_cast<size_t>(kMutantLogs));
}

}  // namespace
}  // namespace aiql
