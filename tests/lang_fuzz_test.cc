// Seeded, grammar-aware fuzzing of the query front end. The evaluation
// corpus (case-study, anomaly and behavior queries) is mutated at the token
// level: tokens are dropped, duplicated or swapped, unbalanced parentheses
// are inserted, numbers are swapped for huge or fractional ones, and literal
// values become $parameters. Each mutant goes through Prepare, and a
// parameterized one is then bound to values of the wrong type. Every outcome
// must be OK or a positioned error ("line N"), never a crash; the sanitizer
// CI job runs this under ASan + UBSan + float-cast-overflow.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/lang/lexer.h"
#include "src/storage/database.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace aiql {
namespace {

constexpr int kMutantsPerQuery = 120;

// One token of a query with the whitespace and comments that follow it, so
// that concatenating the pieces gives the query back.
struct Piece {
  TokenType type;
  std::string text;
};

std::vector<Piece> SplitTokens(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  EXPECT_TRUE(tokens.ok()) << tokens.error();
  std::vector<size_t> line_start{0, 0};  // 1-based lines
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      line_start.push_back(i + 1);
    }
  }
  std::vector<Piece> pieces;
  const std::vector<Token>& toks = tokens.value();
  for (size_t i = 0; i + 1 < toks.size(); ++i) {  // the last token is kEof
    auto offset = [&](const Token& t) { return line_start[t.line] + t.col - 1; };
    const size_t end = i + 2 < toks.size() ? offset(toks[i + 1]) : text.size();
    pieces.push_back(Piece{toks[i].type, text.substr(offset(toks[i]), end - offset(toks[i]))});
  }
  return pieces;
}

const char* const kOddNumbers[] = {
    "99999999999999999999 ", "9223372036854775808 ", "1e400 ",    "4294967296 ",
    "99999999999 ",          "0.5 ",                 "0 ",        "106751991167 ",
    "2147483648 ",           "1000001 ",             "0.000001 ",
};

std::string Mutate(std::vector<Piece> pieces, Rng* rng, int* next_param) {
  const int edits = static_cast<int>(rng->Range(1, 3));
  for (int e = 0; e < edits && !pieces.empty(); ++e) {
    const size_t i = rng->Below(pieces.size());
    switch (rng->Below(7)) {
      case 0:
        pieces.erase(pieces.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(i), pieces[i]);
        break;
      case 2:
        std::swap(pieces[i], pieces[rng->Below(pieces.size())]);
        break;
      case 3:
        pieces.insert(pieces.begin() + static_cast<std::ptrdiff_t>(i),
                      Piece{TokenType::kLParen, rng->Chance(0.5) ? "( " : ") "});
        break;
      case 4: {
        // Prefer a number token; fall back to any position.
        size_t at = i;
        for (size_t k = 0; k < pieces.size(); ++k) {
          size_t j = (i + k) % pieces.size();
          if (pieces[j].type == TokenType::kNumber) {
            at = j;
            break;
          }
        }
        pieces[at] = Piece{TokenType::kNumber,
                           kOddNumbers[rng->Below(std::size(kOddNumbers))]};
        break;
      }
      default: {
        // A literal value becomes a $parameter (twice as likely as the rest,
        // so that Bind sees plenty of mutants).
        for (size_t k = 0; k < pieces.size(); ++k) {
          size_t j = (i + k) % pieces.size();
          if (pieces[j].type == TokenType::kString || pieces[j].type == TokenType::kNumber) {
            pieces[j] = Piece{TokenType::kParam, "$p" + std::to_string((*next_param)++ % 4) + " "};
            break;
          }
        }
        break;
      }
    }
  }
  std::string out;
  for (const Piece& p : pieces) {
    out += p.text;
  }
  return out;
}

// Values a parameter of `type` does not expect: a time-window endpoint gets
// numbers and non-dates, a value gets strings, extremes and NaN.
Value WrongValue(ParamType type, Rng* rng) {
  if (type == ParamType::kTimestamp) {
    const Value wrong[] = {Value(int64_t{42}), Value(1e300), Value("not a date"),
                           Value("2017-13-45"), Value("")};
    return wrong[rng->Below(std::size(wrong))];
  }
  const Value wrong[] = {Value("%"), Value("01/01/2017"), Value(1e300), Value(-1e300),
                         Value(std::nan("")), Value(0.5), Value("")};
  return wrong[rng->Below(std::size(wrong))];
}

void ExpectOkOrPositioned(const Status& s, const std::string& what, const std::string& query) {
  if (!s.ok()) {
    EXPECT_NE(s.message().find("line "), std::string::npos)
        << what << " error without a position: " << s.message() << "\nquery:\n"
        << query;
  }
}

TEST(LangFuzzTest, MutatedCorpusEndsInOkOrPositionedError) {
  Database db;
  db.Finalize();
  const AiqlEngine engine(&db);
  Database unused;
  Workload workload(ScenarioConfig{}, &unused);
  std::vector<QuerySpec> corpus = workload.CaseStudyQueries();
  corpus.push_back(workload.CaseStudyAnomalyQuery());
  for (QuerySpec& q : workload.BehaviorQueries()) {
    corpus.push_back(std::move(q));
  }

  Rng rng(20170101);
  int next_param = 0;
  size_t prepared = 0;
  size_t bound = 0;
  for (const QuerySpec& spec : corpus) {
    ASSERT_TRUE(engine.Prepare(spec.text).ok()) << spec.id;
    const std::vector<Piece> pieces = SplitTokens(spec.text);
    for (int m = 0; m < kMutantsPerQuery; ++m) {
      const std::string mutant = Mutate(pieces, &rng, &next_param);
      Result<PreparedQuery> p = engine.Prepare(mutant);
      ExpectOkOrPositioned(p.status(), "Prepare", mutant);
      if (!p.ok()) {
        continue;
      }
      ++prepared;
      if (p.value().params().empty()) {
        continue;
      }
      ParamSet values;
      for (const ParamInfo& info : p.value().params()) {
        values.Set(info.name, WrongValue(info.type, &rng));
      }
      Result<BoundQuery> b = p.value().Bind(values);
      ExpectOkOrPositioned(b.status(), "Bind", mutant);
      bound += b.ok() ? 1 : 0;
    }
  }
  // The mutants reach past the parser, and some bind.
  EXPECT_GT(prepared, corpus.size() * kMutantsPerQuery / 10);
  EXPECT_GT(bound, 0u);
}

}  // namespace
}  // namespace aiql
