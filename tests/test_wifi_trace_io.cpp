#include "wifi/trace_io.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace wb::wifi {
namespace {

CaptureTrace sample_trace(std::size_t n, std::uint64_t seed) {
  sim::RngStream rng(seed);
  CaptureTrace trace;
  TimeUs t{0};
  for (std::size_t i = 0; i < n; ++i) {
    t += TimeUs{static_cast<std::int64_t>(200 + rng.uniform_int(2'000))};
    CaptureRecord rec;
    rec.timestamp_us = t;
    rec.source = static_cast<std::uint32_t>(rng.uniform_int(5));
    rec.has_csi = !rng.chance(0.2);
    for (auto& ant : rec.csi) {
      for (auto& v : ant) {
        v = rec.has_csi ? rng.uniform(0.0, 30.0) : 0.0;
      }
    }
    for (auto& r : rec.rssi_dbm) r = rng.uniform(-70.0, -30.0);
    trace.push_back(rec);
  }
  return trace;
}

TEST(TraceIo, RoundtripPreservesEverything) {
  const auto trace = sample_trace(40, 1);
  std::stringstream ss;
  EXPECT_EQ(write_capture_csv(ss, trace), 40u);
  const auto back = read_capture_csv(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].timestamp_us, trace[i].timestamp_us);
    EXPECT_EQ(back[i].source, trace[i].source);
    EXPECT_EQ(back[i].has_csi, trace[i].has_csi);
    for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
      EXPECT_NEAR(back[i].rssi_dbm[a], trace[i].rssi_dbm[a], 1e-6);
      if (trace[i].has_csi) {
        for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
          EXPECT_NEAR(back[i].csi[a][s], trace[i].csi[a][s], 1e-6);
        }
      }
    }
  }
}

TEST(TraceIo, RoundtripPropertyRandomTraces) {
  // Property: write then read is the identity, bit-exact, for any NaN-free
  // trace — CSI and RSSI-only records mixed (RSSI-only rows end in a run
  // of empty cells, including the trailing one), values spanning 1e-4 to
  // 1e4 in both signs, and signed timestamps.
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    sim::RngStream rng(seed);
    CaptureTrace trace;
    TimeUs t{-50'000 + static_cast<std::int64_t>(rng.uniform_int(100'000))};
    const std::size_t n = 5 + rng.uniform_int(40);
    for (std::size_t i = 0; i < n; ++i) {
      t += TimeUs{static_cast<std::int64_t>(1 + rng.uniform_int(5'000))};
      CaptureRecord rec;
      rec.timestamp_us = t;
      rec.source = static_cast<std::uint32_t>(rng.uniform_int(8));
      rec.has_csi = !rng.chance(0.3);
      auto value = [&rng] {
        return rng.uniform(-1.0, 1.0) *
               std::pow(10.0, static_cast<double>(rng.uniform_int(9)) - 4.0);
      };
      for (auto& r : rec.rssi_dbm) r = value();
      for (auto& ant : rec.csi) {
        for (auto& v : ant) v = rec.has_csi ? value() : 0.0;
      }
      trace.push_back(rec);
    }

    std::stringstream ss;
    EXPECT_EQ(write_capture_csv(ss, trace), trace.size());
    const auto back = read_capture_csv(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(back[i].timestamp_us, trace[i].timestamp_us);
      EXPECT_EQ(back[i].source, trace[i].source);
      EXPECT_EQ(back[i].has_csi, trace[i].has_csi);
      for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
        EXPECT_EQ(back[i].rssi_dbm[a], trace[i].rssi_dbm[a]);
        for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
          EXPECT_EQ(back[i].csi[a][s], trace[i].csi[a][s]);
        }
      }
    }
  }
}

/// A one-record CSV with recognisable cell values, for tampering.
std::string one_row_csv(bool has_csi) {
  CaptureRecord rec;
  rec.timestamp_us = TimeUs{1'234'567};
  rec.source = 3;
  rec.has_csi = has_csi;
  for (auto& r : rec.rssi_dbm) r = -40.0;
  for (auto& ant : rec.csi) {
    for (auto& v : ant) v = has_csi ? 1.5 : 0.0;
  }
  std::stringstream ss;
  write_capture_csv(ss, {rec});
  return ss.str();
}

/// Replace cell `cell_idx` (0-based) of the first data row.
std::string with_cell(const std::string& csv, std::size_t cell_idx,
                      const std::string& value) {
  const auto header_end = csv.find('\n');
  const auto row_end = csv.find('\n', header_end + 1);
  std::string row = csv.substr(header_end + 1, row_end - header_end - 1);
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(row);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!row.empty() && row.back() == ',') cells.push_back("");
  cells.at(cell_idx) = value;
  std::string out = csv.substr(0, header_end + 1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += cells[i];
  }
  out += csv.substr(row_end);
  return out;
}

void expect_rejected(const std::string& csv, const std::string& fragment) {
  std::stringstream ss(csv);
  try {
    read_capture_csv(ss);
    FAIL() << "expected a parse error mentioning \"" << fragment << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(TraceIo, RejectsTrailingGarbageInTimestamp) {
  // Regression: std::stoll("1234567x") silently parsed the prefix.
  expect_rejected(with_cell(one_row_csv(true), 0, "1234567x"),
                  "line 2, column 1");
}

TEST(TraceIo, RejectsLeadingWhitespace) {
  // Regression: std::stoll skipped leading whitespace.
  expect_rejected(with_cell(one_row_csv(true), 0, " 1234567"), "column 1");
}

TEST(TraceIo, RejectsNegativeSource) {
  // Regression: std::stoul wrapped "-3" around to 4294967293.
  expect_rejected(with_cell(one_row_csv(true), 1, "-3"), "column 2");
}

TEST(TraceIo, RejectsNonBinaryHasCsi) {
  // Regression: any cell other than "1" silently meant "no CSI".
  expect_rejected(with_cell(one_row_csv(true), 2, "2"), "has_csi");
  expect_rejected(with_cell(one_row_csv(true), 2, "true"), "has_csi");
  expect_rejected(with_cell(one_row_csv(true), 2, ""), "has_csi");
}

TEST(TraceIo, RejectsMalformedRssi) {
  expect_rejected(with_cell(one_row_csv(true), 3, ""), "column 4");
  expect_rejected(with_cell(one_row_csv(true), 3, "-40dBm"), "column 4");
}

TEST(TraceIo, RejectsMalformedCsi) {
  expect_rejected(with_cell(one_row_csv(true), 6, "1.5x"), "column 7");
}

TEST(TraceIo, RejectsNonFiniteMeasurements) {
  // Regression: from_chars parses nan/inf, and one such cell reached the
  // decoder's contract checks and aborted `serve --in capture.csv`.
  expect_rejected(with_cell(one_row_csv(true), 3, "nan"),
                  "line 2, column 4: expected finite rssi value");
  expect_rejected(with_cell(one_row_csv(true), 5, "-inf"), "column 6");
  expect_rejected(with_cell(one_row_csv(true), 6, "NaN"),
                  "line 2, column 7: expected finite csi value");
  expect_rejected(with_cell(one_row_csv(true), 95, "infinity"), "column 96");
}

TEST(TraceIo, RejectsMeasurementsOutsideTheConditioningGrid) {
  // Conditioning's exact sums hold only values within
  // kMaxMeasurementMagnitude; a finite 1e300 is refused like a NaN.
  expect_rejected(with_cell(one_row_csv(true), 6, "1e300"),
                  "line 2, column 7: expected csi value within +-65536");
  expect_rejected(with_cell(one_row_csv(true), 3, "-65536.5"),
                  "line 2, column 4: expected rssi value within +-65536");
  std::stringstream at_bound(with_cell(one_row_csv(true), 3, "-65536"));
  EXPECT_NO_THROW(read_capture_csv(at_bound));
}

TEST(TraceIo, RejectsNonEmptyCsiOnRssiOnlyRow) {
  // Regression: CSI cells on has_csi=0 rows were silently ignored, so a
  // row misaligned with the header round-tripped to different data.
  expect_rejected(with_cell(one_row_csv(false), 6, "1.5"),
                  "must be empty");
}

TEST(TraceIo, ErrorReportsOffendingCell) {
  expect_rejected(with_cell(one_row_csv(true), 0, "12a"), "\"12a\"");
}

TEST(TraceIo, EmptyTraceRoundtrips) {
  std::stringstream ss;
  write_capture_csv(ss, {});
  EXPECT_TRUE(read_capture_csv(ss).empty());
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream ss;
  EXPECT_THROW(read_capture_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream ss("time,stuff\n1,2\n");
  EXPECT_THROW(read_capture_csv(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedRow) {
  const auto trace = sample_trace(2, 2);
  std::stringstream ss;
  write_capture_csv(ss, trace);
  std::string text = ss.str();
  text = text.substr(0, text.size() - 40);  // chop the last row
  std::stringstream damaged(text);
  EXPECT_THROW(read_capture_csv(damaged), std::runtime_error);
}

TEST(TraceIo, BeaconRowsHaveEmptyCsiCells) {
  CaptureTrace trace = sample_trace(1, 3);
  trace[0].has_csi = false;
  std::stringstream ss;
  write_capture_csv(ss, trace);
  const auto back = read_capture_csv(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_FALSE(back[0].has_csi);
  EXPECT_DOUBLE_EQ(back[0].csi[0][0], 0.0);
}

TEST(TraceIo, FileRoundtrip) {
  const auto trace = sample_trace(10, 4);
  const std::string path = "/tmp/wb_trace_io_test.csv";
  EXPECT_EQ(save_capture_csv(path, trace), 10u);
  const auto back = load_capture_csv(path);
  EXPECT_EQ(back.size(), 10u);
}

TEST(TraceIo, FileErrorsThrow) {
  EXPECT_THROW(load_capture_csv("/nonexistent/nope.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace wb::wifi
