#include "util/sim_time.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>

namespace mustaple::util {

namespace {

bool is_leap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

// Days from 1970-01-01 to year-month-day (civil), via the classic
// days-from-civil algorithm (Howard Hinnant's formulation).
std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

SimTime from_civil(const CivilTime& c) {
  if (c.month < 1 || c.month > 12 || c.day < 1 ||
      c.day > days_in_month(c.year, c.month) || c.hour < 0 || c.hour > 23 ||
      c.minute < 0 || c.minute > 59 || c.second < 0 || c.second > 60) {
    throw std::invalid_argument("from_civil: field out of range");
  }
  const std::int64_t days = days_from_civil(c.year, c.month, c.day);
  return SimTime{days * 86400 + c.hour * 3600 + c.minute * 60 + c.second};
}

SimTime make_time(int year, int month, int day, int hour, int minute,
                  int second) {
  return from_civil(CivilTime{year, month, day, hour, minute, second});
}

CivilTime to_civil(SimTime t) {
  std::int64_t days = t.unix_seconds / 86400;
  std::int64_t rem = t.unix_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    days -= 1;
  }
  CivilTime c;
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(rem / 3600);
  c.minute = static_cast<int>((rem % 3600) / 60);
  c.second = static_cast<int>(rem % 60);
  return c;
}

std::string format_time(SimTime t) {
  const CivilTime c = to_civil(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buf;
}

std::string to_generalized_time(SimTime t) {
  const CivilTime c = to_civil(t);
  if (c.year < 0 || c.year > 9999) {
    throw std::invalid_argument("to_generalized_time: year outside 0-9999");
  }
  // Written digit pair by digit pair: the 15 characters fit the string's
  // inline buffer, so this allocates nothing.
  std::string out(15, 'Z');
  std::size_t pos = 0;
  for (const int pair : {c.year / 100, c.year % 100, c.month, c.day, c.hour,
                         c.minute, c.second}) {
    out[pos++] = static_cast<char>('0' + pair / 10);
    out[pos++] = static_cast<char>('0' + pair % 10);
  }
  return out;
}

SimTime from_generalized_time(const std::string& text) {
  if (text.size() != 15 || text.back() != 'Z') {
    throw std::invalid_argument("from_generalized_time: bad shape: " + text);
  }
  for (std::size_t i = 0; i < 14; ++i) {
    if (text[i] < '0' || text[i] > '9') {
      throw std::invalid_argument("from_generalized_time: non-digit");
    }
  }
  auto num = [&](std::size_t pos, std::size_t len) {
    int v = 0;
    for (std::size_t i = 0; i < len; ++i) v = v * 10 + (text[pos + i] - '0');
    return v;
  };
  return from_civil(CivilTime{num(0, 4), num(4, 2), num(6, 2), num(8, 2),
                              num(10, 2), num(12, 2)});
}

}  // namespace mustaple::util
