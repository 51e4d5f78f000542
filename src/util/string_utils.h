// String helpers: SQL-LIKE pattern matching (AIQL attribute constraints use
// '%'/'_' wildcards, matched case-insensitively as Windows/Linux path and
// process names are compared in the paper's queries), splitting, trimming,
// and case folding.
#ifndef AIQL_SRC_UTIL_STRING_UTILS_H_
#define AIQL_SRC_UTIL_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace aiql {

// SQL LIKE semantics: '%' matches any run (including empty), '_' matches
// exactly one character. Case-insensitive. Iterative two-pointer algorithm,
// O(len(text) * len(pattern)) worst case, linear in common cases.
bool LikeMatch(std::string_view text, std::string_view pattern);

// True if `pattern` contains LIKE wildcards; otherwise equality applies.
bool HasLikeWildcards(std::string_view pattern);

std::string ToLower(std::string_view s);
// Allocation-free variant for hot loops: folds `s` into `out`, reusing its
// capacity.
void ToLowerInto(std::string_view s, std::string* out);
// `s` without leading and trailing whitespace (std::isspace), as a view into
// `s`; Trim copies it.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);
std::vector<std::string> Split(std::string_view s, char sep);
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Case-insensitive equality (ASCII).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Counts whitespace-separated words / non-space characters; the conciseness
// metrics of paper §6.4.
size_t CountWords(std::string_view s);
size_t CountNonSpaceChars(std::string_view s);

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_STRING_UTILS_H_
