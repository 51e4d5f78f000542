// Time handling for system monitoring data.
//
// All event timestamps are int64 milliseconds since the Unix epoch (UTC).
// AIQL queries accept US-format dates ("01/01/2017"), ISO-8601 dates and
// datetimes ("2017-01-01", "2017-01-01 10:30:00"), and relative granularities
// ("1 min", "10 sec", "2 hours") per paper §4.1.
#ifndef AIQL_SRC_UTIL_TIME_UTILS_H_
#define AIQL_SRC_UTIL_TIME_UTILS_H_

#include <cstdint>
#include <string>

#include "src/util/result.h"

namespace aiql {

using TimestampMs = int64_t;
using DurationMs = int64_t;

inline constexpr DurationMs kMillisecond = 1;
inline constexpr DurationMs kSecondMs = 1000;
inline constexpr DurationMs kMinuteMs = 60 * kSecondMs;
inline constexpr DurationMs kHourMs = 60 * kMinuteMs;
inline constexpr DurationMs kDayMs = 24 * kHourMs;

// Inclusive-start, exclusive-end time range. A default range is unbounded.
struct TimeRange {
  TimestampMs begin = INT64_MIN;
  TimestampMs end = INT64_MAX;

  bool Contains(TimestampMs t) const { return t >= begin && t < end; }
  bool Overlaps(const TimeRange& other) const { return begin < other.end && other.begin < end; }
  TimeRange Intersect(const TimeRange& other) const {
    return TimeRange{begin > other.begin ? begin : other.begin, end < other.end ? end : other.end};
  }
  bool empty() const { return begin >= end; }
  bool bounded() const { return begin != INT64_MIN && end != INT64_MAX; }
  bool operator==(const TimeRange& other) const = default;
};

// Builds a UTC timestamp from calendar components (proleptic Gregorian).
TimestampMs MakeTimestamp(int year, int month, int day, int hour = 0, int minute = 0,
                          int second = 0, int millis = 0);

// Timestamps an event may carry: within the last millisecond of year 9999
// (the latest datetime literal) either side of the epoch, so day arithmetic
// (DayIndex, DayStart, a range's exclusive end) cannot overflow.
inline constexpr TimestampMs kMaxTimestampMs = 253402300799999;
inline constexpr TimestampMs kMinTimestampMs = -kMaxTimestampMs;

// Day index (days since epoch) for temporal partitioning; floor division.
int64_t DayIndex(TimestampMs t);
TimestampMs DayStart(int64_t day_index);

// Parses "01/01/2017" (US), "2017-01-01", "2017-01-01 10:30[:05]",
// "2017-01-01T10:30:05". Returns the timestamp of the instant.
Result<TimestampMs> ParseDateTime(const std::string& text);

// Parses a datetime as a range: a bare date covers the whole day, a time with
// minute precision covers that minute, etc. Used by `(at "01/01/2017")`.
Result<TimeRange> ParseDateTimeRange(const std::string& text);

// Longest duration a query may state (window, step, temporal range): 36,500
// days. A timestamp plus or minus it stays far inside the int64 range.
inline constexpr DurationMs kMaxDurationMs = 36500 * kDayMs;

// Converts `amount` of `unit` ("5 min", "10 sec", "2 days", "300 ms") to
// milliseconds; fails outside [0, kMaxDurationMs]. Unit aliases:
// ms/millisecond(s), s/sec/second(s), min/minute(s), h/hour(s), d/day(s).
Result<DurationMs> ParseDuration(double amount, const std::string& unit);

// Formats as "YYYY-MM-DD hh:mm:ss.mmm" (UTC).
std::string FormatTimestamp(TimestampMs t);

}  // namespace aiql

#endif  // AIQL_SRC_UTIL_TIME_UTILS_H_
