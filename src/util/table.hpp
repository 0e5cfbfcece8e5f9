// Fixed-width ASCII table printer used by every experiment binary so that
// reproduced "tables" are uniform and diffable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ps::util {

/// Collects rows of string cells and prints them with aligned columns,
/// a header separator, and an optional caption. Numeric convenience
/// overloads format with %.4g.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Caption printed above the table, e.g. "E1: approximation ratio vs n".
  void set_caption(std::string caption) { caption_ = std::move(caption); }

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value);
  Table& cell(int value);
  Table& cell(std::size_t value);

  std::size_t num_rows() const { return rows_.size(); }

  /// Renders the whole table.
  std::string to_string() const;
  void print(std::ostream& os) const;
  /// Prints to stdout. If the PS_CSV_DIR environment variable is set, also
  /// writes the table as CSV to "$PS_CSV_DIR/<slug-of-caption>.csv" so every
  /// experiment run can dump machine-readable series for plotting without
  /// touching the benchmark sources. Returns false when that side CSV was
  /// requested but could not be written (true when no PS_CSV_DIR is set) —
  /// result binaries must propagate it into a nonzero exit instead of
  /// reporting success over a missing file.
  bool print() const;

  /// Writes the table as CSV (header + rows) to `path` with
  /// write_file_if_changed. Returns false — after a loud diagnostic naming
  /// the path on stderr — when the file cannot be written.
  bool write_csv(const std::string& path) const;

  /// "E1: approximation ratio vs n" -> "e1-approximation-ratio-vs-n".
  static std::string slugify(const std::string& text);

 private:
  std::string caption_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with %.4g (the table-wide numeric format).
std::string format_number(double value);

}  // namespace ps::util
