#include "src/lang/parser.h"

#include <cmath>
#include <optional>
#include <utility>

#include "src/lang/lexer.h"
#include "src/util/string_utils.h"

namespace aiql {
namespace {

using ast::Query;

bool IsEntityTypeName(const std::string& s) {
  return EqualsIgnoreCase(s, "proc") || EqualsIgnoreCase(s, "process") ||
         EqualsIgnoreCase(s, "file") || EqualsIgnoreCase(s, "ip") ||
         EqualsIgnoreCase(s, "net") || EqualsIgnoreCase(s, "network") ||
         EqualsIgnoreCase(s, "conn");
}

EntityType EntityTypeFromName(const std::string& s) {
  if (EqualsIgnoreCase(s, "file")) {
    return EntityType::kFile;
  }
  if (EqualsIgnoreCase(s, "proc") || EqualsIgnoreCase(s, "process")) {
    return EntityType::kProcess;
  }
  return EntityType::kNetwork;
}

// Words that may never be consumed as entity/event identifiers.
bool IsReservedWord(const std::string& s) {
  static const char* kReserved[] = {
      "as",     "with",   "return", "before", "after",  "within", "forward",
      "backward", "group", "having", "sort",  "top",    "from",   "to",
      "at",     "in",     "not",    "by",     "asc",    "desc",   "distinct",
      "count",  "window", "step",
  };
  for (const char* w : kReserved) {
    if (EqualsIgnoreCase(s, w)) {
      return true;
    }
  }
  return ParseOperation(s).has_value() || IsEntityTypeName(s);
}

// One level of a flattened predicate or operation chain: its separator and
// how two operands join.
template <typename T>
struct ChainLevel {
  TokenType sep;
  T (*join)(T, T);
};

// Attribute constraints, loosest level first: ',' < '||' < '&&'. The comma
// separates the conjuncts of an entity or event list, as in the paper's
// Query 3: proc p1["%/bin/cp%", agentid = 2].
constexpr ChainLevel<PredExpr> kAttrLevels[] = {
    {TokenType::kComma, PredExpr::And},
    {TokenType::kOrOr, PredExpr::Or},
    {TokenType::kAndAnd, PredExpr::And},
};

// Operation expressions over operation bitmasks: '||' < '&&'.
constexpr ChainLevel<OpMask> kOpLevels[] = {
    {TokenType::kOrOr, [](OpMask a, OpMask b) { return static_cast<OpMask>(a | b); }},
    {TokenType::kAndAnd, [](OpMask a, OpMask b) { return static_cast<OpMask>(a & b); }},
};

// Binary operators of filter and return expressions by precedence level,
// loosest first: '||' < '&&' < comparison < '+' '-' < '*' '/'. Level -1 marks
// a token that is no binary operator.
constexpr int kExprLevels = 5;
constexpr int kCmpLevel = 2;  // comparisons do not chain: `a < b < c` is an error

std::pair<int, BinOp> BinaryOperator(TokenType t) {
  switch (t) {
    case TokenType::kOrOr:
      return {0, BinOp::kOr};
    case TokenType::kAndAnd:
      return {1, BinOp::kAnd};
    case TokenType::kEq:
      return {kCmpLevel, BinOp::kEq};
    case TokenType::kNe:
      return {kCmpLevel, BinOp::kNe};
    case TokenType::kLt:
      return {kCmpLevel, BinOp::kLt};
    case TokenType::kLe:
      return {kCmpLevel, BinOp::kLe};
    case TokenType::kGt:
      return {kCmpLevel, BinOp::kGt};
    case TokenType::kGe:
      return {kCmpLevel, BinOp::kGe};
    case TokenType::kPlus:
      return {3, BinOp::kAdd};
    case TokenType::kMinus:
      return {3, BinOp::kSub};
    case TokenType::kStar:
      return {4, BinOp::kMul};
    case TokenType::kSlash:
      return {4, BinOp::kDiv};
    default:
      return {-1, BinOp::kAdd};
  }
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Parse(const std::string& text) {
    Query q;
    q.text = text;
    Status s = ParseGlobalConstraints(&q.global);
    if (!s.ok()) {
      return Result<Query>(s);
    }
    // Decide multievent vs dependency.
    if (IsIdent("forward") || IsIdent("backward")) {
      q.kind = ast::QueryKind::kDependency;
      s = ParseDependency(&q.dependency);
    } else if (Cur().type == TokenType::kIdent && IsEntityTypeName(Cur().text)) {
      // Look ahead: an entity followed by '->' or '<-' starts a dependency
      // path; anything else is a multievent pattern.
      size_t save = pos_;
      ast::EntityRef probe;
      Status probe_status = ParseEntity(&probe);
      bool dependency = probe_status.ok() && (Cur().type == TokenType::kArrow ||
                                              Cur().type == TokenType::kLArrow);
      pos_ = save;
      if (dependency) {
        q.kind = ast::QueryKind::kDependency;
        s = ParseDependency(&q.dependency);
      } else {
        s = ParseMultievent(&q.multievent);
        q.kind = q.global.window.has_value() ? ast::QueryKind::kAnomaly
                                             : ast::QueryKind::kMultievent;
      }
    } else {
      return Err("expected an event pattern or dependency path");
    }
    if (!s.ok()) {
      return Result<Query>(s);
    }
    if (Cur().type != TokenType::kEof) {
      return Err("unexpected trailing input starting with " + Describe(Cur()));
    }
    if (q.kind == ast::QueryKind::kAnomaly && !q.global.step.has_value()) {
      q.global.step = q.global.window;  // tumbling window by default
    }
    return q;
  }

 private:
  // --- token helpers -------------------------------------------------------
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
  }
  bool IsIdent(const char* word) const {
    return Cur().type == TokenType::kIdent && EqualsIgnoreCase(Cur().text, word);
  }
  bool AcceptIdent(const char* word) {
    if (IsIdent(word)) {
      Advance();
      return true;
    }
    return false;
  }
  bool Accept(TokenType t) {
    if (Cur().type == t) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* context) {
    if (Cur().type != t) {
      return Status::Error("line " + std::to_string(Cur().line) + ": expected " +
                           TokenTypeName(t) + " in " + context + ", found " + Describe(Cur()));
    }
    Advance();
    return Status::Ok();
  }
  static std::string Describe(const Token& t) {
    if (t.type == TokenType::kIdent || t.type == TokenType::kNumber) {
      return "'" + t.text + "'";
    }
    if (t.type == TokenType::kParam) {
      return "'$" + t.text + "'";
    }
    if (t.type == TokenType::kString) {
      return "string \"" + t.text + "\"";
    }
    return TokenTypeName(t.type);
  }
  Status ErrStatus(const std::string& message) const {
    return Status::Error("line " + std::to_string(Cur().line) + ": " + message);
  }
  Result<Query> Err(const std::string& message) const {
    return Result<Query>(ErrStatus(message));
  }

  // --- nesting depth -------------------------------------------------------
  // Every recursive step of the three self-nesting grammars (attribute
  // predicates, operation expressions, filter/return expressions) holds one
  // level for its duration, and so does every step of an expression operator
  // chain (`a + b + c` nests `a + b` one level under the second `+`; later
  // stages recurse over that tree). Predicate and operation chains come out
  // flat, so their steps hold none. Past kMaxNestingDepth the parse fails
  // with a positioned error instead of exhausting the stack.
  static constexpr int kMaxNestingDepth = 256;
  class DepthGuard {
   public:
    explicit DepthGuard(int* depth, int levels = 1) : depth_(depth), levels_(levels) {
      *depth_ += levels;
    }
    ~DepthGuard() { *depth_ -= levels_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    // Holds one more level until the guard goes out of scope.
    void Deepen() {
      ++*depth_;
      ++levels_;
    }
    bool exceeded() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
    int levels_;
  };
  // Bounds on whole-number operands: how many sliding windows back a history
  // reference `alias[k]` may look, and the row limit of `top n` (2^53: every
  // whole number up to it is exact as a double).
  static constexpr int64_t kMaxHistoryOffset = 1000000;
  static constexpr int64_t kMaxTop = int64_t{1} << 53;

  Status NestingTooDeep() const {
    return Status::Error("line " + std::to_string(Cur().line) + ", column " +
                         std::to_string(Cur().col) + ": nesting too deep (more than " +
                         std::to_string(kMaxNestingDepth) + " levels)");
  }

  static std::optional<CmpOp> CmpFromToken(TokenType t) {
    switch (t) {
      case TokenType::kEq:
        return CmpOp::kEq;
      case TokenType::kNe:
        return CmpOp::kNe;
      case TokenType::kLt:
        return CmpOp::kLt;
      case TokenType::kLe:
        return CmpOp::kLe;
      case TokenType::kGt:
        return CmpOp::kGt;
      case TokenType::kGe:
        return CmpOp::kGe;
      default:
        return std::nullopt;
    }
  }

  static Value TokenValue(const Token& t) {
    if (t.type == TokenType::kNumber) {
      // Literals are non-negative; whole ones below 2^63 are integers, and
      // larger ones stay doubles (casting them to int64 is undefined).
      if (t.number < 0x1p63 && t.number == std::trunc(t.number)) {
        return Value(static_cast<int64_t>(t.number));
      }
      return Value(t.number);
    }
    if (t.type == TokenType::kParam) {
      return Value::Param(t.text, t.line);
    }
    return Value(t.text);
  }

  // Token types usable as a constraint value: literal or $parameter.
  static bool IsValueToken(const Token& t) {
    return t.type == TokenType::kString || t.type == TokenType::kNumber ||
           t.type == TokenType::kParam;
  }

  static PredExpr MakeLeaf(std::string attr, CmpOp op, std::vector<Value> values) {
    AttrPredicate p;
    p.name = std::move(attr);
    p.op = op;
    p.values = std::move(values);
    p.PromoteWildcardEquality();
    return PredExpr::Leaf(std::move(p));
  }

  // --- global constraints --------------------------------------------------
  Status ParseGlobalConstraints(ast::GlobalConstraints* out) {
    for (;;) {
      if (Cur().type == TokenType::kLParen &&
          (Peek().type == TokenType::kIdent &&
           (EqualsIgnoreCase(Peek().text, "at") || EqualsIgnoreCase(Peek().text, "from")))) {
        Advance();  // '('
        ast::TimeWindowSpec spec;
        Status s = ParseTimeWindow(&spec);
        if (!s.ok()) {
          return s;
        }
        out->time_windows.push_back(std::move(spec));
        s = Expect(TokenType::kRParen, "time window");
        if (!s.ok()) {
          return s;
        }
        continue;
      }
      if (IsIdent("window") && Peek().type == TokenType::kEq) {
        Advance();
        Advance();
        Status s = ParseDurationTokens(&out->window);
        if (!s.ok()) {
          return s;
        }
        Accept(TokenType::kComma);
        continue;
      }
      if (IsIdent("step") && Peek().type == TokenType::kEq) {
        Advance();
        Advance();
        Status s = ParseDurationTokens(&out->step);
        if (!s.ok()) {
          return s;
        }
        Accept(TokenType::kComma);
        continue;
      }
      // Plain constraint: ident bop value | ident [not] in (...).
      if (Cur().type == TokenType::kIdent && !IsEntityTypeName(Cur().text) &&
          !IsIdent("forward") && !IsIdent("backward")) {
        bool is_cstr = CmpFromToken(Peek().type).has_value() ||
                       (Peek().type == TokenType::kIdent &&
                        (EqualsIgnoreCase(Peek().text, "in") ||
                         EqualsIgnoreCase(Peek().text, "not")));
        if (!is_cstr) {
          return ErrStatus("unrecognized global constraint near '" + Cur().text + "'");
        }
        if (out->constraint.is_true()) {
          out->line = Cur().line;
        }
        PredExpr leaf;
        Status s = ParseConstraintLeaf(&leaf);
        if (!s.ok()) {
          return s;
        }
        out->constraint = PredExpr::And(std::move(out->constraint), std::move(leaf));
        continue;
      }
      return Status::Ok();
    }
  }

  // One endpoint of a from..to window: a datetime string or a $parameter.
  Status ParseTimeEndpoint(const char* after, std::optional<TimestampMs>* fixed,
                           std::string* param) {
    if (Cur().type == TokenType::kParam) {
      *param = Cur().text;
      Advance();
      return Status::Ok();
    }
    if (Cur().type != TokenType::kString) {
      return ErrStatus(std::string("expected a datetime string or $parameter after '") + after +
                       "'");
    }
    Result<TimestampMs> t = ParseDateTime(Cur().text);
    if (!t.ok()) {
      return ErrStatus(t.error());
    }
    Advance();
    *fixed = t.value();
    return Status::Ok();
  }

  Status ParseTimeWindow(ast::TimeWindowSpec* out) {
    out->line = Cur().line;
    if (AcceptIdent("at")) {
      if (Cur().type == TokenType::kParam) {
        out->at_param = Cur().text;
        Advance();
        return Status::Ok();
      }
      if (Cur().type != TokenType::kString) {
        return ErrStatus("expected a datetime string or $parameter after 'at'");
      }
      Result<TimeRange> r = ParseDateTimeRange(Cur().text);
      if (!r.ok()) {
        return ErrStatus(r.error());
      }
      Advance();
      out->fixed = r.value();
      return Status::Ok();
    }
    if (AcceptIdent("from")) {
      Status s = ParseTimeEndpoint("from", &out->from_fixed, &out->from_param);
      if (!s.ok()) {
        return s;
      }
      if (!AcceptIdent("to")) {
        return ErrStatus("expected 'to' in time window");
      }
      s = ParseTimeEndpoint("to", &out->to_fixed, &out->to_param);
      if (!s.ok()) {
        return s;
      }
      if (out->from_fixed.has_value() && out->to_fixed.has_value()) {
        out->fixed = TimeRange{*out->from_fixed, *out->to_fixed};
      }
      return Status::Ok();
    }
    return ErrStatus("expected 'at' or 'from' in time window");
  }

  // Converts `amount` of the time unit at the current token (not consumed)
  // to milliseconds. Window, step and temporal-range durations all pass
  // through here, and ParseDuration fails past kMaxDurationMs.
  Status ToDuration(double amount, const char* context, DurationMs* out) {
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus(std::string("expected a time unit in ") + context);
    }
    Result<DurationMs> d = ParseDuration(amount, Cur().text);
    if (!d.ok()) {
      return ErrStatus(d.error());
    }
    *out = d.value();
    return Status::Ok();
  }

  Status ParseDurationTokens(std::optional<DurationMs>* out) {
    if (Cur().type != TokenType::kNumber) {
      return ErrStatus("expected a number in duration");
    }
    double amount = Cur().number;
    Advance();
    DurationMs d = 0;
    Status s = ToDuration(amount, "duration", &d);
    if (!s.ok()) {
      return s;
    }
    if (d == 0) {
      return ErrStatus("a sliding window and its step must be at least 1 ms");
    }
    Advance();
    *out = d;
    return Status::Ok();
  }

  // The current number token as a whole number in [0, max], consumed; a
  // fraction or a number past `max` is a positioned error.
  Status TakeWholeNumber(const char* what, int64_t max, int64_t* out) {
    const double v = Cur().number;
    if (!(v <= static_cast<double>(max)) || v != std::trunc(v)) {
      return ErrStatus(std::string(what) + " must be a whole number from 0 to " +
                       std::to_string(max) + ", found " + Describe(Cur()));
    }
    *out = static_cast<int64_t>(v);
    Advance();
    return Status::Ok();
  }

  // --- attribute constraints ----------------------------------------------
  // <cstr> ::= <attr> <bop> <val> | '!'? <val> | <attr> 'not'? 'in' '(' ... ')'
  Status ParseConstraintLeaf(PredExpr* out) {
    if (Cur().type == TokenType::kIdent && !EqualsIgnoreCase(Cur().text, "not")) {
      std::string attr = ToLower(Cur().text);
      // attr bop val
      if (auto cmp = CmpFromToken(Peek().type); cmp.has_value()) {
        Advance();
        Advance();
        if (!IsValueToken(Cur())) {
          return ErrStatus("expected a value after comparison operator");
        }
        *out = MakeLeaf(std::move(attr), *cmp, {TokenValue(Cur())});
        Advance();
        return Status::Ok();
      }
      // attr [not] in ( v, v, ... )
      if (Peek().type == TokenType::kIdent &&
          (EqualsIgnoreCase(Peek().text, "in") || EqualsIgnoreCase(Peek().text, "not"))) {
        Advance();
        bool negated = AcceptIdent("not");
        if (!AcceptIdent("in")) {
          return ErrStatus("expected 'in' after 'not'");
        }
        Status s = Expect(TokenType::kLParen, "IN list");
        if (!s.ok()) {
          return s;
        }
        std::vector<Value> values;
        do {
          if (!IsValueToken(Cur())) {
            return ErrStatus("expected a value in IN list");
          }
          values.push_back(TokenValue(Cur()));
          Advance();
        } while (Accept(TokenType::kComma));
        s = Expect(TokenType::kRParen, "IN list");
        if (!s.ok()) {
          return s;
        }
        *out = MakeLeaf(std::move(attr), negated ? CmpOp::kNotIn : CmpOp::kIn, std::move(values));
        return Status::Ok();
      }
      return ErrStatus("expected a comparison or IN after attribute '" + attr + "'");
    }
    // Bare value => default attribute (inference fills the attr name).
    if (IsValueToken(Cur())) {
      *out = MakeLeaf("", CmpOp::kEq, {TokenValue(Cur())});
      Advance();
      return Status::Ok();
    }
    return ErrStatus("expected an attribute constraint, found " + Describe(Cur()));
  }

  Status ParseAttrUnary(PredExpr* out) {
    DepthGuard depth(&depth_);
    if (depth.exceeded()) {
      return NestingTooDeep();
    }
    if (Accept(TokenType::kBang)) {
      PredExpr inner;
      Status s = ParseAttrUnary(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = PredExpr::Not(std::move(inner));
      return Status::Ok();
    }
    if (Cur().type == TokenType::kLParen) {
      Advance();
      // A parenthesized group admits no ',': it starts at the '||' level.
      Status s = ParseChain(kAttrLevels, 1, &Parser::ParseAttrUnary, out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "attribute constraint");
    }
    return ParseConstraintLeaf(out);
  }

  // Parses `operand (sep operand)*` for levels[level..], loosest first, and
  // folds left with each level's join. PredExpr::And/Or merge same-kind
  // children and operation masks are bits, so the result is flat and a chain
  // step holds no depth level; only the operand (ParseAttrUnary,
  // ParseOpUnary) does.
  template <typename T, size_t N>
  Status ParseChain(const ChainLevel<T> (&levels)[N], size_t level, Status (Parser::*operand)(T*),
                    T* out) {
    if (level == N) {
      return (this->*operand)(out);
    }
    Status s = ParseChain(levels, level + 1, operand, out);
    if (!s.ok()) {
      return s;
    }
    while (Accept(levels[level].sep)) {
      T rhs{};
      s = ParseChain(levels, level + 1, operand, &rhs);
      if (!s.ok()) {
        return s;
      }
      *out = levels[level].join(std::move(*out), std::move(rhs));
    }
    return Status::Ok();
  }

  // --- operation expressions -----------------------------------------------
  Status ParseOpUnary(OpMask* out) {
    DepthGuard depth(&depth_);
    if (depth.exceeded()) {
      return NestingTooDeep();
    }
    if (Accept(TokenType::kBang)) {
      OpMask inner = 0;
      Status s = ParseOpUnary(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = static_cast<OpMask>(~inner & kAllOps);
      return Status::Ok();
    }
    if (Cur().type == TokenType::kLParen) {
      Advance();
      Status s = ParseChain(kOpLevels, 0, &Parser::ParseOpUnary, out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "operation expression");
    }
    if (Cur().type == TokenType::kIdent) {
      std::optional<Operation> op = ParseOperation(Cur().text);
      if (!op.has_value()) {
        return ErrStatus("unknown operation '" + Cur().text + "'");
      }
      Advance();
      *out = OpBit(*op);
      return Status::Ok();
    }
    return ErrStatus("expected an operation, found " + Describe(Cur()));
  }

  // --- entities and patterns -----------------------------------------------
  Status ParseEntity(ast::EntityRef* out) {
    if (Cur().type != TokenType::kIdent || !IsEntityTypeName(Cur().text)) {
      return ErrStatus("expected an entity type (proc/file/ip), found " + Describe(Cur()));
    }
    out->type = EntityTypeFromName(Cur().text);
    out->line = Cur().line;
    Advance();
    if (Cur().type == TokenType::kIdent && !IsReservedWord(Cur().text)) {
      out->id = Cur().text;
      Advance();
    }
    if (Accept(TokenType::kLBracket)) {
      Status s = ParseChain(kAttrLevels, 0, &Parser::ParseAttrUnary, &out->constraint);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRBracket, "entity constraint");
      if (!s.ok()) {
        return s;
      }
    }
    return Status::Ok();
  }

  Status ParseEventPattern(ast::EventPattern* out) {
    out->line = Cur().line;
    Status s = ParseEntity(&out->subject);
    if (!s.ok()) {
      return s;
    }
    s = ParseChain(kOpLevels, 0, &Parser::ParseOpUnary, &out->ops);
    if (!s.ok()) {
      return s;
    }
    s = ParseEntity(&out->object);
    if (!s.ok()) {
      return s;
    }
    if (AcceptIdent("as")) {
      if (Cur().type != TokenType::kIdent || IsReservedWord(Cur().text)) {
        return ErrStatus("expected an event identifier after 'as'");
      }
      out->evt_id = Cur().text;
      Advance();
      if (Accept(TokenType::kLBracket)) {
        s = ParseChain(kAttrLevels, 0, &Parser::ParseAttrUnary, &out->evt_constraint);
        if (!s.ok()) {
          return s;
        }
        s = Expect(TokenType::kRBracket, "event constraint");
        if (!s.ok()) {
          return s;
        }
      }
    }
    if (Cur().type == TokenType::kLParen && Peek().type == TokenType::kIdent &&
        (EqualsIgnoreCase(Peek().text, "at") || EqualsIgnoreCase(Peek().text, "from"))) {
      Advance();
      ast::TimeWindowSpec spec;
      s = ParseTimeWindow(&spec);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRParen, "pattern time window");
      if (!s.ok()) {
        return s;
      }
      out->time_window = std::move(spec);
    }
    return Status::Ok();
  }

  // --- relationships ---------------------------------------------------------
  Status ParseRelationship(ast::MultieventQuery* out) {
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected a relationship, found " + Describe(Cur()));
    }
    int line = Cur().line;
    std::string left = Cur().text;
    Advance();
    std::string left_attr;
    if (Accept(TokenType::kDot)) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an attribute after '.'");
      }
      left_attr = ToLower(Cur().text);
      Advance();
    }
    if (IsIdent("before") || IsIdent("after") || IsIdent("within")) {
      ast::TempRel rel;
      rel.line = line;
      rel.left_evt = left;
      if (!left_attr.empty()) {
        return ErrStatus("temporal relationships take event IDs, not attributes");
      }
      if (AcceptIdent("before")) {
        rel.order = ast::TempOrder::kBefore;
      } else if (AcceptIdent("after")) {
        rel.order = ast::TempOrder::kAfter;
      } else {
        AcceptIdent("within");
        rel.order = ast::TempOrder::kWithin;
      }
      if (Accept(TokenType::kLBracket)) {
        // [lo - hi unit]
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number in temporal range");
        }
        double lo = Cur().number;
        Advance();
        Status s = Expect(TokenType::kMinus, "temporal range");
        if (!s.ok()) {
          return s;
        }
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number in temporal range");
        }
        double hi = Cur().number;
        Advance();
        DurationMs lo_ms = 0;
        DurationMs hi_ms = 0;
        s = ToDuration(lo, "temporal range", &lo_ms);
        if (s.ok()) {
          s = ToDuration(hi, "temporal range", &hi_ms);
        }
        if (!s.ok()) {
          return s;
        }
        Advance();
        s = Expect(TokenType::kRBracket, "temporal range");
        if (!s.ok()) {
          return s;
        }
        rel.lo = lo_ms;
        rel.hi = hi_ms;
      }
      if (Cur().type != TokenType::kIdent || IsReservedWord(Cur().text)) {
        return ErrStatus("expected an event identifier after temporal operator");
      }
      rel.right_evt = Cur().text;
      Advance();
      out->temp_rels.push_back(std::move(rel));
      return Status::Ok();
    }
    auto cmp = CmpFromToken(Cur().type);
    if (!cmp.has_value()) {
      return ErrStatus("expected a comparison or temporal operator in relationship");
    }
    Advance();
    if (Cur().type != TokenType::kIdent) {
      return ErrStatus("expected an identifier on the right side of the relationship");
    }
    ast::AttrRel rel;
    rel.line = line;
    rel.left_id = left;
    rel.left_attr = left_attr;
    rel.op = *cmp;
    rel.right_id = Cur().text;
    Advance();
    if (Accept(TokenType::kDot)) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an attribute after '.'");
      }
      rel.right_attr = ToLower(Cur().text);
      Advance();
    }
    out->attr_rels.push_back(std::move(rel));
    return Status::Ok();
  }

  // --- expressions -----------------------------------------------------------
  Status ParsePrimaryExpr(Expr* out) {
    if (Cur().type == TokenType::kNumber) {
      *out = Expr::Number(Cur().number);
      Advance();
      return Status::Ok();
    }
    if (Cur().type == TokenType::kString) {
      *out = Expr::String(Cur().text);
      Advance();
      return Status::Ok();
    }
    if (Cur().type == TokenType::kParam) {
      *out = Expr::Param(Cur().text, Cur().line);
      Advance();
      return Status::Ok();
    }
    if (Accept(TokenType::kLParen)) {
      Status s = ParseBinaryExpr(out);
      if (!s.ok()) {
        return s;
      }
      return Expect(TokenType::kRParen, "expression");
    }
    if (Cur().type == TokenType::kIdent) {
      std::string name = Cur().text;
      Advance();
      if (Accept(TokenType::kLParen)) {
        // Function call; count(distinct x) becomes count_distinct(x).
        std::string func = ToLower(name);
        bool distinct = false;
        if (EqualsIgnoreCase(func, "count") && IsIdent("distinct")) {
          Advance();
          distinct = true;
        }
        std::vector<Expr> args;
        if (Cur().type != TokenType::kRParen) {
          do {
            Expr arg;
            Status s = ParseBinaryExpr(&arg);
            if (!s.ok()) {
              return s;
            }
            args.push_back(std::move(arg));
          } while (Accept(TokenType::kComma));
        }
        Status s = Expect(TokenType::kRParen, "function call");
        if (!s.ok()) {
          return s;
        }
        if (distinct) {
          func = "count_distinct";
        }
        *out = Expr::Call(std::move(func), std::move(args));
        return Status::Ok();
      }
      if (Cur().type == TokenType::kLBracket && Peek().type == TokenType::kNumber) {
        // History reference: alias[k].
        Advance();
        int64_t offset = 0;
        Status s = TakeWholeNumber("history offset", kMaxHistoryOffset, &offset);
        if (s.ok()) {
          s = Expect(TokenType::kRBracket, "history reference");
        }
        if (!s.ok()) {
          return s;
        }
        *out = Expr::Hist(std::move(name), static_cast<int>(offset));
        return Status::Ok();
      }
      if (Accept(TokenType::kDot)) {
        if (Cur().type != TokenType::kIdent) {
          return ErrStatus("expected an attribute after '.'");
        }
        std::string attr = ToLower(Cur().text);
        Advance();
        *out = Expr::Var(std::move(name), std::move(attr));
        return Status::Ok();
      }
      *out = Expr::Var(std::move(name));
      return Status::Ok();
    }
    return ErrStatus("expected an expression, found " + Describe(Cur()));
  }

  // Guards the whole expression grammar: parenthesized and call-argument
  // subexpressions re-enter through here via ParsePrimaryExpr.
  Status ParseUnaryExpr(Expr* out) {
    DepthGuard depth(&depth_);
    if (depth.exceeded()) {
      return NestingTooDeep();
    }
    if (Accept(TokenType::kBang)) {
      Expr inner;
      Status s = ParseUnaryExpr(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Unary('!', std::move(inner));
      return Status::Ok();
    }
    if (Accept(TokenType::kMinus)) {
      Expr inner;
      Status s = ParseUnaryExpr(&inner);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Unary('-', std::move(inner));
      return Status::Ok();
    }
    const int line = Cur().line;
    Status s = ParsePrimaryExpr(out);
    out->line = line;
    return s;
  }

  // One precedence level of the expression grammar (see BinaryOperator):
  // operands are the next tighter level, and the tightest level's operands
  // are unary expressions. Each chain step holds one depth level.
  Status ParseBinaryExpr(Expr* out, int level = 0) {
    if (level == kExprLevels) {
      return ParseUnaryExpr(out);
    }
    Status s = ParseBinaryExpr(out, level + 1);
    if (!s.ok()) {
      return s;
    }
    DepthGuard chain(&depth_, 0);
    for (;;) {
      auto [op_level, op] = BinaryOperator(Cur().type);
      if (op_level != level) {
        return Status::Ok();
      }
      chain.Deepen();
      if (chain.exceeded()) {
        return NestingTooDeep();
      }
      Advance();
      Expr rhs;
      s = ParseBinaryExpr(&rhs, level + 1);
      if (!s.ok()) {
        return s;
      }
      *out = Expr::Binary(op, std::move(*out), std::move(rhs));
      if (level == kCmpLevel) {
        return Status::Ok();
      }
    }
  }

  // --- return and filters ----------------------------------------------------
  Status ParseReturnItem(ast::ReturnItem* out) {
    Status s = ParseBinaryExpr(&out->expr);
    if (!s.ok()) {
      return s;
    }
    if (AcceptIdent("as")) {
      if (Cur().type != TokenType::kIdent) {
        return ErrStatus("expected an alias after 'as'");
      }
      out->rename = Cur().text;
      Advance();
    }
    return Status::Ok();
  }

  Status ParseReturnClause(ast::ReturnClause* out) {
    if (!AcceptIdent("return")) {
      return ErrStatus("expected 'return'");
    }
    if (IsIdent("count") && Peek().type != TokenType::kLParen) {
      out->count_all = true;
      Advance();
    }
    if (AcceptIdent("distinct")) {
      out->distinct = true;
    }
    do {
      ast::ReturnItem item;
      Status s = ParseReturnItem(&item);
      if (!s.ok()) {
        return s;
      }
      out->items.push_back(std::move(item));
    } while (Accept(TokenType::kComma));
    return Status::Ok();
  }

  Status ParseFilters(ast::Filters* out) {
    for (;;) {
      if (IsIdent("group")) {
        Advance();
        if (!AcceptIdent("by")) {
          return ErrStatus("expected 'by' after 'group'");
        }
        do {
          ast::ReturnItem item;
          Status s = ParseReturnItem(&item);
          if (!s.ok()) {
            return s;
          }
          out->group_by.push_back(std::move(item));
        } while (Accept(TokenType::kComma));
        continue;
      }
      if (IsIdent("having")) {
        Advance();
        Expr e;
        Status s = ParseBinaryExpr(&e);
        if (!s.ok()) {
          return s;
        }
        out->having = std::move(e);
        continue;
      }
      if (IsIdent("sort")) {
        Advance();
        if (!AcceptIdent("by")) {
          return ErrStatus("expected 'by' after 'sort'");
        }
        do {
          ast::SortKey key;
          Status s = ParseBinaryExpr(&key.expr);
          if (!s.ok()) {
            return s;
          }
          out->sort_by.push_back(std::move(key));
        } while (Accept(TokenType::kComma));
        if (AcceptIdent("desc")) {
          for (auto& k : out->sort_by) {
            k.ascending = false;
          }
        } else {
          AcceptIdent("asc");
        }
        continue;
      }
      if (IsIdent("top")) {
        Advance();
        if (Cur().type != TokenType::kNumber) {
          return ErrStatus("expected a number after 'top'");
        }
        int64_t top = 0;
        Status s = TakeWholeNumber("'top'", kMaxTop, &top);
        if (!s.ok()) {
          return s;
        }
        out->top = top;
        continue;
      }
      return Status::Ok();
    }
  }

  // --- query bodies ----------------------------------------------------------
  Status ParseMultievent(ast::MultieventQuery* out) {
    while (Cur().type == TokenType::kIdent && IsEntityTypeName(Cur().text)) {
      ast::EventPattern pattern;
      Status s = ParseEventPattern(&pattern);
      if (!s.ok()) {
        return s;
      }
      out->patterns.push_back(std::move(pattern));
    }
    if (out->patterns.empty()) {
      return ErrStatus("a multievent query needs at least one event pattern");
    }
    if (AcceptIdent("with")) {
      do {
        Status s = ParseRelationship(out);
        if (!s.ok()) {
          return s;
        }
      } while (Accept(TokenType::kComma));
    }
    Status s = ParseReturnClause(&out->ret);
    if (!s.ok()) {
      return s;
    }
    return ParseFilters(&out->filters);
  }

  Status ParseDependency(ast::DependencyQuery* out) {
    if (AcceptIdent("forward")) {
      out->forward = true;
      Status s = Expect(TokenType::kColon, "dependency direction");
      if (!s.ok()) {
        return s;
      }
    } else if (AcceptIdent("backward")) {
      out->forward = false;
      Status s = Expect(TokenType::kColon, "dependency direction");
      if (!s.ok()) {
        return s;
      }
    }
    ast::EntityRef first;
    Status s = ParseEntity(&first);
    if (!s.ok()) {
      return s;
    }
    out->nodes.push_back(std::move(first));
    while (Cur().type == TokenType::kArrow || Cur().type == TokenType::kLArrow) {
      ast::DependencyEdge edge;
      edge.points_right = Cur().type == TokenType::kArrow;
      Advance();
      s = Expect(TokenType::kLBracket, "dependency edge");
      if (!s.ok()) {
        return s;
      }
      s = ParseChain(kOpLevels, 0, &Parser::ParseOpUnary, &edge.ops);
      if (!s.ok()) {
        return s;
      }
      s = Expect(TokenType::kRBracket, "dependency edge");
      if (!s.ok()) {
        return s;
      }
      ast::EntityRef node;
      s = ParseEntity(&node);
      if (!s.ok()) {
        return s;
      }
      out->edges.push_back(edge);
      out->nodes.push_back(std::move(node));
    }
    if (out->edges.empty()) {
      return ErrStatus("a dependency query needs at least one edge");
    }
    s = ParseReturnClause(&out->ret);
    if (!s.ok()) {
      return s;
    }
    return ParseFilters(&out->filters);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting depth (see DepthGuard)
};

}  // namespace

Result<ast::Query> ParseQuery(const std::string& text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) {
    return Result<ast::Query>(tokens.status());
  }
  Parser parser(tokens.take());
  return parser.Parse(text);
}

}  // namespace aiql
