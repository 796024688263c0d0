#ifndef M2M_COMMON_TABLE_H_
#define M2M_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace m2m {

/// Aligned text table used by the experiment harnesses to print the rows and
/// series the paper's figures report, plus a CSV form for plotting.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// Adds a row; must match the column count.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision.
  static std::string Num(double value, int precision = 2);

  /// Writes the table with aligned columns.
  void Print(std::ostream& os) const;

  /// Writes comma-separated values (header + rows).
  void PrintCsv(std::ostream& os) const;

  size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace m2m

#endif  // M2M_COMMON_TABLE_H_
