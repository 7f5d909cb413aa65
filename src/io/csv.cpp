#include "io/csv.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace mafia {

namespace {

std::vector<std::string> split_line(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, delimiter)) fields.push_back(field);
  // A trailing delimiter means a final empty field.
  if (!line.empty() && line.back() == delimiter) fields.emplace_back();
  return fields;
}

std::string where(const std::string& path, std::size_t line_no) {
  return path + ":" + std::to_string(line_no);
}

double parse_number(const std::string& field, std::size_t line_no,
                    const std::string& path) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  while (end > begin && (end[-1] == ' ' || end[-1] == '\t' || end[-1] == '\r')) {
    --end;
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  require_input(ec == std::errc{} && ptr == end,
                "read_csv: non-numeric field '" + field + "' at " +
                    where(path, line_no));
  return value;
}

/// A value column: finite once narrowed to Value, as record files require
/// (from_chars accepts "nan" and "inf", and 1e39 narrows to inf).
Value parse_value(const std::string& field, std::size_t line_no,
                  const std::string& path) {
  const auto value = static_cast<Value>(parse_number(field, line_no, path));
  require_input(std::isfinite(value), "read_csv: non-finite value '" + field +
                                          "' at " + where(path, line_no));
  return value;
}

/// The label column: an integer in int32 range.
std::int32_t parse_label(const std::string& field, std::size_t line_no,
                         const std::string& path) {
  const double value = parse_number(field, line_no, path);
  require_input(value >= std::numeric_limits<std::int32_t>::min() &&
                    value <= std::numeric_limits<std::int32_t>::max() &&
                    value == std::trunc(value),
                "read_csv: label '" + field + "' is not an int32 at " +
                    where(path, line_no));
  return static_cast<std::int32_t>(value);
}

}  // namespace

Dataset read_csv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  require(in.good(), "read_csv: cannot open " + path);

  std::string line;
  std::size_t line_no = 0;
  if (options.header) {
    require(static_cast<bool>(std::getline(in, line)), "read_csv: empty file " + path);
    ++line_no;
  }

  Dataset data;
  std::size_t value_columns = 0;
  std::vector<Value> row;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    const auto fields = split_line(line, options.delimiter);
    const std::size_t values =
        fields.size() - (options.last_column_is_label ? 1 : 0);
    if (value_columns == 0) {
      require(values >= 1, "read_csv: no value columns in " + path);
      value_columns = values;
      data = Dataset(value_columns);
      row.resize(value_columns);
    }
    require_input(values == value_columns,
                  "read_csv: ragged row at " + where(path, line_no));
    for (std::size_t j = 0; j < value_columns; ++j) {
      row[j] = parse_value(fields[j], line_no, path);
    }
    std::int32_t label = kUnlabeledLabel;
    if (options.last_column_is_label) {
      label = parse_label(fields.back(), line_no, path);
    }
    data.append(row, label);
  }
  require(data.num_dims() > 0, "read_csv: no data rows in " + path);
  return data;
}

void write_csv(const std::string& path, const Dataset& data,
               const CsvOptions& options,
               const std::vector<std::string>& column_names) {
  require(column_names.empty() || column_names.size() == data.num_dims(),
          "write_csv: column_names size mismatch");
  std::ofstream out(path, std::ios::trunc);
  require(out.good(), "write_csv: cannot open " + path);

  if (options.header) {
    for (std::size_t j = 0; j < data.num_dims(); ++j) {
      if (j) out << options.delimiter;
      if (column_names.empty()) {
        out << "d" << j;
      } else {
        out << column_names[j];
      }
    }
    if (options.last_column_is_label) out << options.delimiter << "label";
    out << "\n";
  }
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    const auto row = data.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j) out << options.delimiter;
      out << row[j];
    }
    if (options.last_column_is_label) {
      out << options.delimiter << data.label(i);
    }
    out << "\n";
  }
  require(out.good(), "write_csv: write failed for " + path);
}

}  // namespace mafia
