// Minimal CSV rendering so experiments can dump machine-readable series next
// to the human-readable tables (e.g. for plotting the reproduced figures).
#pragma once

#include <string>
#include <vector>

namespace ps::util {

/// `rows` as CSV text: cells joined by commas, every row ending in '\n',
/// and RFC-4180 quoting of a cell that contains a comma, quote or newline
/// (quoted, with `""` escapes). The one renderer behind the sweep CSV and
/// Table::write_csv.
std::string csv_text(const std::vector<std::vector<std::string>>& rows);

}  // namespace ps::util
