// Calendar utilities for the longitudinal study.
//
// The paper's figures are monthly time series spanning 2012-01 .. 2018-05.
// We model calendar time as a Month (a linear month index) plus a civil
// Date for event anchors (attack disclosure dates, browser release dates).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace tls::core {

/// A civil calendar date (proleptic Gregorian). Validated on construction.
class Date {
 public:
  constexpr Date() = default;
  /// Constructs a date; throws std::invalid_argument on an invalid civil date.
  Date(int year, int month, int day);

  /// Parses "YYYY-MM-DD". Throws std::invalid_argument on malformed input.
  static Date parse(const std::string& text);

  [[nodiscard]] int year() const { return year_; }
  [[nodiscard]] int month() const { return month_; }
  [[nodiscard]] int day() const { return day_; }

  /// Days since 1970-01-01 (can be negative).
  [[nodiscard]] std::int64_t to_days() const;
  static Date from_days(std::int64_t days);

  [[nodiscard]] std::string to_string() const;  // "YYYY-MM-DD"

  friend auto operator<=>(const Date&, const Date&) = default;

 private:
  std::int16_t year_ = 1970;
  std::int8_t month_ = 1;
  std::int8_t day_ = 1;
};

/// Number of days in a civil month.
int days_in_month(int year, int month);
bool is_leap_year(int year);

/// A month in the study timeline, stored as a linear index
/// (year * 12 + (month - 1)) so that arithmetic and ranges are trivial.
class Month {
 public:
  constexpr Month() = default;
  Month(int year, int month);
  explicit Month(const Date& d) : Month(d.year(), d.month()) {}

  /// Parses "YYYY-MM". Throws std::invalid_argument on malformed input.
  static Month parse(const std::string& text);

  [[nodiscard]] int year() const { return index_ / 12; }
  [[nodiscard]] int month() const { return index_ % 12 + 1; }
  [[nodiscard]] int index() const { return index_; }

  /// First day of the month as a Date.
  [[nodiscard]] Date first_day() const { return Date(year(), month(), 1); }

  [[nodiscard]] std::string to_string() const;  // "YYYY-MM"

  Month& operator++() { ++index_; return *this; }
  Month operator++(int) { Month m = *this; ++index_; return m; }
  Month& operator+=(int n) { index_ += n; return *this; }
  friend Month operator+(Month m, int n) { m += n; return m; }
  friend int operator-(const Month& a, const Month& b) { return a.index_ - b.index_; }

  friend auto operator<=>(const Month&, const Month&) = default;

 private:
  int index_ = 1970 * 12;
};

/// The largest month index a decoder accepts (the year 3000). Anything
/// above is a corrupt or hostile field, not a month of any study window;
/// the bound also keeps year * 12 inside an int.
inline constexpr std::uint32_t kMaxMonthIndex = 12u * 3000u;

/// The Month whose index() is `index`. `index` must not exceed
/// kMaxMonthIndex; decoders check it before calling this.
Month month_from_index(std::uint32_t index);

/// Inclusive month range [begin, end]; iterable in for-loops via months().
struct MonthRange {
  Month begin_month;
  Month end_month;

  [[nodiscard]] int size() const { return end_month - begin_month + 1; }
  [[nodiscard]] bool contains(Month m) const {
    return begin_month <= m && m <= end_month;
  }
};

/// The paper's passive-measurement window (Notary): 2012-02 .. 2018-04.
MonthRange notary_window();
/// The paper's active-scan window (Censys): 2015-08 .. 2018-05.
MonthRange censys_window();

}  // namespace tls::core
