// CSV import/export — the practical ingestion path for users bringing
// their own tables (the record-file format remains the out-of-core format
// the algorithm scans).
#pragma once

#include <string>
#include <vector>

#include "io/dataset.hpp"

namespace mafia {

struct CsvOptions {
  char delimiter = ',';
  /// Skip the first line (column names) on read; emit names on write.
  bool header = true;
  /// On read: treat an integer final column named "label" (or the last
  /// column when `last_column_is_label`) as the ground-truth label.
  bool last_column_is_label = false;
};

/// Reads a numeric CSV into a Dataset.  Every value column must parse as a
/// number that is finite as a float, and the optional trailing label
/// column as an integer in int32 range; a ragged row, a non-numeric
/// field, a NaN or infinite value, or a bad label raises mafia::InputError
/// naming path:line.
[[nodiscard]] Dataset read_csv(const std::string& path,
                               const CsvOptions& options = {});

/// Writes a Dataset as CSV.  `column_names` (optional) must match the
/// dimension count; default names are d0..d{n-1}.  Labels are appended as a
/// final "label" column when `options.last_column_is_label`.
void write_csv(const std::string& path, const Dataset& data,
               const CsvOptions& options = {},
               const std::vector<std::string>& column_names = {});

}  // namespace mafia
