#include "obs/report.h"

#include <cstdio>

#include "obs/json.h"

namespace wb::obs {

namespace {

std::string value_json(const RunReport::Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return json_number(*d);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  // Sequential += (not chained +) sidesteps a GCC 12 -Wrestrict false
  // positive on inlined string concatenation; same throughout this file.
  std::string out = "\"";
  out += json_escape(std::get<std::string>(v));
  out += '"';
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written =
      std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && written == content.size();
}

}  // namespace

RunReport::Row& RunReport::Row::set(std::string_view key, double value) {
  fields_.emplace_back(std::string(key), Value(value));
  return *this;
}

RunReport::Row& RunReport::Row::set(std::string_view key,
                                    std::string_view value) {
  fields_.emplace_back(std::string(key), Value(std::string(value)));
  return *this;
}

RunReport::Row& RunReport::Row::set_bool(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), Value(value));
  return *this;
}

void RunReport::set_meta(std::string_view key, std::string_view value) {
  meta_.emplace_back(std::string(key), Value(std::string(value)));
}

void RunReport::set_meta(std::string_view key, double value) {
  meta_.emplace_back(std::string(key), Value(value));
}

void RunReport::set_meta_bool(std::string_view key, bool value) {
  meta_.emplace_back(std::string(key), Value(value));
}

RunReport::Row& RunReport::add_row(std::string_view name) {
  rows_.emplace_back(std::string(name));
  return rows_.back();
}

void RunReport::attach_metrics(const MetricsRegistry& reg) {
  metrics_ = reg.snapshot();
}

std::string RunReport::to_json() const {
  std::string out = "{\n  \"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    \"";
    out += json_escape(meta_[i].first);
    out += "\": ";
    out += value_json(meta_[i].second);
  }
  out += meta_.empty() ? "},\n" : "\n  },\n";

  out += "  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out += ",";
    out += "\n    {\"row\": \"";
    out += json_escape(rows_[r].name());
    out += "\"";
    for (const auto& [key, value] : rows_[r].fields()) {
      out += ", \"";
      out += json_escape(key);
      out += "\": ";
      out += value_json(value);
    }
    out += "}";
  }
  out += rows_.empty() ? "],\n" : "\n  ],\n";

  out += "  \"metrics\": {\n    \"counters\": {";
  for (std::size_t i = 0; i < metrics_.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n      \"";
    out += json_escape(metrics_.counters[i].first);
    out += "\": ";
    out += std::to_string(metrics_.counters[i].second);
  }
  out += metrics_.counters.empty() ? "},\n" : "\n    },\n";
  out += "    \"gauges\": {";
  for (std::size_t i = 0; i < metrics_.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n      \"";
    out += json_escape(metrics_.gauges[i].first);
    out += "\": ";
    out += json_number(metrics_.gauges[i].second);
  }
  out += metrics_.gauges.empty() ? "},\n" : "\n    },\n";
  out += "    \"histograms\": {";
  for (std::size_t i = 0; i < metrics_.histograms.size(); ++i) {
    if (i > 0) out += ",";
    const auto& [name, h] = metrics_.histograms[i];
    out += "\n      \"";
    out += json_escape(name);
    out += "\": {\"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    out += json_number(h.sum);
    out += ", \"min\": ";
    out += json_number(h.min);
    out += ", \"max\": ";
    out += json_number(h.max);
    out += ", \"p50\": ";
    out += json_number(h.p50);
    out += ", \"p95\": ";
    out += json_number(h.p95);
    out += ", \"p99\": ";
    out += json_number(h.p99);
    out += "}";
  }
  out += metrics_.histograms.empty() ? "}\n" : "\n    }\n";
  out += "  }\n}\n";
  return out;
}

bool RunReport::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

}  // namespace wb::obs
