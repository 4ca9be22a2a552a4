// Simulated wall-clock time. The whole study runs on a virtual clock so a
// four-month measurement campaign executes in milliseconds and replays
// deterministically. Times are seconds since the Unix epoch (UTC), matching
// the paper's requirement that OCSP/X.509 times be expressed in Zulu time.
#pragma once

#include <cstdint>
#include <string>

namespace mustaple::util {

/// A span of simulated time, in seconds. Strongly typed to avoid mixing
/// durations with absolute instants.
struct Duration {
  std::int64_t seconds = 0;

  static constexpr Duration secs(std::int64_t s) { return Duration{s}; }
  static constexpr Duration minutes(std::int64_t m) { return Duration{m * 60}; }
  static constexpr Duration hours(std::int64_t h) { return Duration{h * 3600}; }
  static constexpr Duration days(std::int64_t d) { return Duration{d * 86400}; }

  constexpr Duration operator+(Duration o) const { return Duration{seconds + o.seconds}; }
  constexpr Duration operator-(Duration o) const { return Duration{seconds - o.seconds}; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{seconds * k}; }
  constexpr auto operator<=>(const Duration&) const = default;
};

/// An absolute instant on the simulated clock (seconds since epoch, UTC).
struct SimTime {
  std::int64_t unix_seconds = 0;

  constexpr SimTime operator+(Duration d) const { return SimTime{unix_seconds + d.seconds}; }
  constexpr SimTime operator-(Duration d) const { return SimTime{unix_seconds - d.seconds}; }
  constexpr Duration operator-(SimTime o) const {
    return Duration{unix_seconds - o.unix_seconds};
  }
  constexpr auto operator<=>(const SimTime&) const = default;
};

/// Broken-down UTC time.
struct CivilTime {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31
  int hour = 0;
  int minute = 0;
  int second = 0;
};

/// Converts a civil UTC timestamp to SimTime. Validates field ranges.
SimTime from_civil(const CivilTime& civil);

/// Convenience: from_civil({y, m, d, hh, mm, ss}).
SimTime make_time(int year, int month, int day, int hour = 0, int minute = 0,
                  int second = 0);

/// Converts SimTime back to broken-down UTC.
CivilTime to_civil(SimTime t);

/// "YYYY-MM-DD HH:MM:SS" (UTC), for reports and logs.
std::string format_time(SimTime t);

/// ASN.1 GeneralizedTime: "YYYYMMDDHHMMSSZ". Throws std::invalid_argument
/// for a year outside 0-9999, which has no four-digit form.
std::string to_generalized_time(SimTime t);

/// Parses "YYYYMMDDHHMMSSZ"; throws std::invalid_argument on malformed input.
SimTime from_generalized_time(const std::string& text);

}  // namespace mustaple::util
