// RunReport: machine-readable result sink for experiments and benches.
//
// A report carries three things:
//   * meta       — free-form key/value context (figure id, seed, mode);
//                  numbers, strings, and booleans keep their JSON types
//                  (`"quick": true`, not `1.0`);
//   * rows       — the tabular results a bench would otherwise printf
//                  (one named row, ordered fields, numeric or string);
//   * metrics    — an optional MetricsRegistry snapshot (counters, gauges,
//                  histogram percentiles) attached at the end of a run.
//
// The export format is JSON: one self-describing object.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/metrics.h"

namespace wb::obs {

class RunReport {
 public:
  using Value = std::variant<double, std::string, bool>;

  /// One named result row with ordered fields.
  ///
  /// The bool overloads are exact-match templates so that a `const char*`
  /// argument still selects the string overload (a plain `set(..., bool)`
  /// would win that resolution via pointer->bool conversion) and integer
  /// arguments keep converting to double rather than becoming ambiguous.
  class Row {
   public:
    explicit Row(std::string name) : name_(std::move(name)) {}
    Row& set(std::string_view key, double value);
    Row& set(std::string_view key, std::string_view value);
    template <typename T,
              std::enable_if_t<std::is_same_v<T, bool>, int> = 0>
    Row& set(std::string_view key, T value) {
      return set_bool(key, value);
    }

    const std::string& name() const { return name_; }
    const std::vector<std::pair<std::string, Value>>& fields() const {
      return fields_;
    }

   private:
    Row& set_bool(std::string_view key, bool value);

    std::string name_;
    std::vector<std::pair<std::string, Value>> fields_;
  };

  void set_meta(std::string_view key, std::string_view value);
  void set_meta(std::string_view key, double value);
  template <typename T, std::enable_if_t<std::is_same_v<T, bool>, int> = 0>
  void set_meta(std::string_view key, T value) {
    set_meta_bool(key, value);
  }

  /// Adds a row; the reference stays valid until the next add_row.
  Row& add_row(std::string_view name);

  /// Snapshots `reg` into the report (replacing any earlier snapshot).
  void attach_metrics(const MetricsRegistry& reg);

  const std::vector<Row>& rows() const { return rows_; }
  const MetricsRegistry::Snapshot& metrics_snapshot() const {
    return metrics_;
  }

  std::string to_json() const;

  bool write_json(const std::string& path) const;

 private:
  void set_meta_bool(std::string_view key, bool value);

  std::vector<std::pair<std::string, Value>> meta_;
  std::vector<Row> rows_;
  MetricsRegistry::Snapshot metrics_;
};

}  // namespace wb::obs
