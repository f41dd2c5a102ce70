#include "tlscore/dates.hpp"

#include <cstdio>
#include <stdexcept>

namespace tls::core {

bool is_leap_year(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) {
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) {
    throw std::invalid_argument("month out of range: " + std::to_string(month));
  }
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[month - 1];
}

Date::Date(int year, int month, int day)
    : year_(static_cast<std::int16_t>(year)),
      month_(static_cast<std::int8_t>(month)),
      day_(static_cast<std::int8_t>(day)) {
  if (year < -9999 || year > 9999) {
    throw std::invalid_argument("year out of range");
  }
  if (month < 1 || month > 12) {
    throw std::invalid_argument("month out of range");
  }
  if (day < 1 || day > days_in_month(year, month)) {
    throw std::invalid_argument("day out of range");
  }
}

Date Date::parse(const std::string& text) {
  int y = 0, m = 0, d = 0;
  char tail = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d%c", &y, &m, &d, &tail) != 3) {
    throw std::invalid_argument("bad date: " + text);
  }
  return Date(y, m, d);
}

// Howard Hinnant's civil-days algorithm.
std::int64_t Date::to_days() const {
  int y = year_;
  const unsigned m = static_cast<unsigned>(month_);
  const unsigned d = static_cast<unsigned>(day_);
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

Date Date::from_days(std::int64_t z) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return Date(static_cast<int>(y + (m <= 2)), static_cast<int>(m),
              static_cast<int>(d));
}

std::string Date::to_string() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year(), month(), day());
  return buf;
}

Month::Month(int year, int month) {
  if (month < 1 || month > 12) {
    throw std::invalid_argument("month out of range");
  }
  index_ = year * 12 + (month - 1);
}

Month Month::parse(const std::string& text) {
  int y = 0, m = 0;
  char tail = 0;
  if (std::sscanf(text.c_str(), "%d-%d%c", &y, &m, &tail) != 2) {
    throw std::invalid_argument("bad month: " + text);
  }
  return Month(y, m);
}

std::string Month::to_string() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d", year(), month());
  return buf;
}

Month month_from_index(std::uint32_t index) {
  return Month(static_cast<int>(index / 12), static_cast<int>(index % 12) + 1);
}

MonthRange notary_window() { return {Month(2012, 2), Month(2018, 4)}; }
MonthRange censys_window() { return {Month(2015, 8), Month(2018, 5)}; }

}  // namespace tls::core
