#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace pb {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

Tracer::Tracer(std::size_t span_capacity)
    : capacity_(span_capacity), origin_ns_(now_ns()) {
  spans_.reserve(capacity_);
  stack_.reserve(16);
  layers_.reserve(32);
}

std::uint32_t Tracer::layer_index(const char* name) {
  // Literals are usually deduplicated, so the pointer pass almost always
  // hits; the strcmp pass catches the same name spelled in another file.
  for (std::uint32_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return i;
  }
  for (std::uint32_t i = 0; i < layers_.size(); ++i) {
    if (std::strcmp(layers_[i].name, name) == 0) return i;
  }
  Layer l;
  l.name = name;
  layers_.push_back(std::move(l));
  return static_cast<std::uint32_t>(layers_.size() - 1);
}

void Tracer::keep_samples(const char* name, std::size_t expected) {
  Layer& l = layers_[layer_index(name)];
  l.keep_samples = true;
  l.samples_ns.reserve(expected);
}

void Tracer::begin(const char* name) {
  Open o;
  o.layer = layer_index(name);
  if (spans_.size() < capacity_) {
    Span s;
    s.name = o.layer;
    s.parent = stack_.empty() ? -1 : stack_.back().span;
    o.span = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  } else {
    ++dropped_;
  }
  o.start_ns = now_ns();
  if (o.span >= 0) spans_[static_cast<std::size_t>(o.span)].start_ns = o.start_ns;
  stack_.push_back(o);
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start_ns;
  if (o.span >= 0) spans_[static_cast<std::size_t>(o.span)].end_ns = t;
  Layer& l = layers_[o.layer];
  ++l.calls;
  l.total_ns += dur;
  l.self_ns += dur - o.child_ns;
  if (l.keep_samples) l.samples_ns.push_back(static_cast<double>(dur));
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

const Tracer::Layer& Tracer::layer(const char* name) const {
  static const Layer kEmpty{};
  for (const Layer& l : layers_) {
    if (std::strcmp(l.name, name) == 0) return l;
  }
  return kEmpty;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}\n",
                 i, layers_[s.name].name,
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_), s.parent);
  }
  std::fprintf(f, "{\"type\":\"summary\",\"spans_kept\":%zu,"
                  "\"spans_dropped\":%llu,\"layers\":[",
               spans_.size(), static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& l = layers_[i];
    std::fprintf(f, "%s{\"name\":\"%s\",\"calls\":%llu,\"total_ns\":%lld,"
                    "\"self_ns\":%lld}",
                 i == 0 ? "" : ",", l.name,
                 static_cast<unsigned long long>(l.calls),
                 static_cast<long long>(l.total_ns),
                 static_cast<long long>(l.self_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
