#include "wifi/trace_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/parse.h"

namespace wb::wifi {
namespace {

std::string header_line() {
  std::ostringstream os;
  os << "timestamp_us,source,has_csi";
  for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
    os << ",rssi_a" << a;
  }
  for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
    for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
      os << ",csi_" << a << "_" << s;
    }
  }
  return os.str();
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) out.push_back(cell);
  // A trailing empty cell ("...,") is dropped by getline; normalise.
  if (!line.empty() && line.back() == ',') out.push_back("");
  return out;
}

[[noreturn]] void fail_cell(std::size_t line_no, std::size_t column,
                            const std::string& what,
                            const std::string& cell) {
  throw std::runtime_error("capture csv: line " + std::to_string(line_no) +
                           ", column " + std::to_string(column) + ": " +
                           what + " (got \"" + cell + "\")");
}

/// Strict full-cell parse; `column` is the 1-based cell index for errors.
/// Floating-point cells must also be finite and within
/// kMaxMeasurementMagnitude: from_chars accepts nan/inf, which no NIC
/// reports and the decoder's contracts reject, and conditioning's grids
/// hold only values inside the bound.
template <typename T>
T parse_cell(const std::string& cell, std::size_t line_no, std::size_t column,
             const char* what) {
  T value{};
  if (!util::parse_full(cell, value)) {
    fail_cell(line_no, column, std::string("expected ") + what, cell);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      fail_cell(line_no, column, std::string("expected finite ") + what,
                cell);
    }
    if (!measurement_in_range(value)) {
      fail_cell(line_no, column,
                std::string("expected ") + what + " within +-65536", cell);
    }
  }
  return value;
}

}  // namespace

std::size_t write_capture_csv(std::ostream& os, const CaptureTrace& trace) {
  // Round-trip-exact doubles.
  os << std::setprecision(17);
  os << header_line() << "\n";
  for (const auto& rec : trace) {
    os << rec.timestamp_us.ticks() << ',' << rec.source << ','
       << (rec.has_csi ? 1 : 0);
    for (double r : rec.rssi_dbm) os << ',' << r;
    for (const auto& ant : rec.csi) {
      for (double v : ant) {
        os << ',';
        if (rec.has_csi) os << v;
      }
    }
    os << '\n';
  }
  return trace.size();
}

CaptureTrace read_capture_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("capture csv: empty input");
  }
  if (line != header_line()) {
    throw std::runtime_error("capture csv: unexpected header");
  }
  const std::size_t expected_cells =
      3 + phy::kNumAntennas + kNumCsiStreams;

  CaptureTrace trace;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split(line);
    if (cells.size() != expected_cells) {
      throw std::runtime_error("capture csv: wrong cell count on line " +
                               std::to_string(line_no));
    }
    CaptureRecord rec;
    std::size_t i = 0;
    rec.timestamp_us = TimeUs{parse_cell<std::int64_t>(
        cells[i], line_no, i + 1, "integer timestamp_us")};
    ++i;
    // Unsigned parse: rejects negative source ids outright instead of
    // wrapping them around like std::stoul would.
    rec.source =
        parse_cell<std::uint32_t>(cells[i], line_no, i + 1,
                                  "non-negative integer source");
    ++i;
    if (cells[i] != "0" && cells[i] != "1") {
      fail_cell(line_no, i + 1, "has_csi must be 0 or 1", cells[i]);
    }
    rec.has_csi = cells[i] == "1";
    ++i;
    for (auto& r : rec.rssi_dbm) {
      r = parse_cell<double>(cells[i], line_no, i + 1, "rssi value");
      ++i;
    }
    for (auto& ant : rec.csi) {
      for (auto& v : ant) {
        if (rec.has_csi) {
          v = parse_cell<double>(cells[i], line_no, i + 1, "csi value");
        } else {
          // RSSI-only rows carry empty CSI cells; anything else means the
          // row is misaligned with the header.
          if (!cells[i].empty()) {
            fail_cell(line_no, i + 1,
                      "csi cell must be empty when has_csi is 0", cells[i]);
          }
          v = 0.0;
        }
        ++i;
      }
    }
    trace.push_back(rec);
  }
  return trace;
}

std::size_t save_capture_csv(const std::string& path,
                             const CaptureTrace& trace) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  return write_capture_csv(os, trace);
}

CaptureTrace load_capture_csv(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return read_capture_csv(is);
}

std::string capture_csv_string(const CaptureTrace& trace) {
  std::ostringstream os;
  write_capture_csv(os, trace);
  return std::move(os).str();
}

}  // namespace wb::wifi
