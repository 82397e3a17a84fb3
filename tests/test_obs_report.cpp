#include "obs/report.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace wb::obs {
namespace {

TEST(RunReport, JsonContainsMetaRowsAndMetrics) {
  MetricsRegistry reg;
  reg.counter("a.b.total").add(7);
  reg.gauge("a.b.ratio").set(0.25);
  reg.histogram("a.b.wall_us").record(4.0);

  RunReport report;
  report.set_meta("figure", "fig12");
  report.set_meta("seed", 42.0);
  report.add_row("point").set("pps", 500.0).set("label", "low");
  report.attach_metrics(reg);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"figure\": \"fig12\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"row\": \"point\""), std::string::npos);
  EXPECT_NE(json.find("\"pps\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"low\""), std::string::npos);
  EXPECT_NE(json.find("\"a.b.total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"a.b.ratio\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(RunReport, EmptyReportIsStillWellFormed) {
  RunReport report;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"meta\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"rows\": []"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
}

TEST(RunReport, JsonEscapesStringsInMetaAndRows) {
  RunReport report;
  report.set_meta("note", "line\nbreak \"quoted\"");
  report.add_row("r").set("s", "tab\there");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("line\\nbreak \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(RunReport, WriteJsonFile) {
  RunReport report;
  report.add_row("r").set("v", 3.0);
  const std::string jpath = ::testing::TempDir() + "wb_report_test.json";
  EXPECT_TRUE(report.write_json(jpath));
  std::remove(jpath.c_str());
  // Unwritable path reports failure instead of aborting.
  EXPECT_FALSE(report.write_json("/nonexistent-dir/x/y.json"));
}

TEST(RunReport, AttachMetricsReplacesEarlierSnapshot) {
  MetricsRegistry first;
  first.counter("old.metric.total").add(1);
  MetricsRegistry second;
  second.counter("new.metric.total").add(2);

  RunReport report;
  report.attach_metrics(first);
  report.attach_metrics(second);
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("old.metric.total"), std::string::npos);
  EXPECT_NE(json.find("new.metric.total"), std::string::npos);
}

}  // namespace
}  // namespace wb::obs
