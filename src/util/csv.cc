#include "util/csv.h"

#include "util/json.h"

namespace scq::util {

namespace {
// Quotes a cell if it contains a delimiter, quote or newline.
std::string escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void CsvWriter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::render() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out += ',';
      out += escape(cells[i]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out;
}

bool CsvWriter::write(const std::string& path) const {
  return write_file(path, render());
}

}  // namespace scq::util
