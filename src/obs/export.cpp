#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

namespace hc::obs {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

// Render a {family -> {labelset -> scalar}} map as a JSON object of objects.
template <typename Families, typename ValueFn>
void append_scalar_families(std::string& out, const Families& families,
                            ValueFn value_of) {
  out += '{';
  bool first_family = true;
  for (const auto& [family, by_label] : families) {
    if (!first_family) out += ',';
    first_family = false;
    out += quoted(family);
    out += ":{";
    bool first_label = true;
    for (const auto& [labelset, metric] : by_label) {
      if (!first_label) out += ',';
      first_label = false;
      out += quoted(labelset);
      out += ':';
      out += std::to_string(value_of(metric));
    }
    out += '}';
  }
  out += '}';
}

void append_int_array(std::string& out, const std::vector<std::int64_t>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(xs[i]);
  }
  out += ']';
}

void append_u64_array(std::string& out, const std::vector<std::uint64_t>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(xs[i]);
  }
  out += ']';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string metrics_to_json(const MetricsRegistry& registry) {
  std::string out;
  out += "{\"counters\":";
  append_scalar_families(out, registry.counters(),
                         [](const Counter& c) { return c.value(); });
  out += ",\"gauges\":";
  append_scalar_families(out, registry.gauges(),
                         [](const Gauge& g) { return g.value(); });
  out += ",\"histograms\":{";
  bool first_family = true;
  for (const auto& [family, by_label] : registry.histograms()) {
    if (!first_family) out += ',';
    first_family = false;
    out += quoted(family);
    out += ":{";
    bool first_label = true;
    for (const auto& [labelset, h] : by_label) {
      if (!first_label) out += ',';
      first_label = false;
      out += quoted(labelset);
      out += ":{\"count\":";
      out += std::to_string(h.count());
      out += ",\"sum\":";
      out += std::to_string(h.sum());
      out += ",\"bounds\":";
      append_int_array(out, h.bounds());
      out += ",\"buckets\":";
      append_u64_array(out, h.buckets());
      out += '}';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string trace_to_chrome_json(const Tracer& tracer) {
  // Canonical span order: parallel lanes append to the tracer in
  // nondeterministic interleavings, so insertion order is not stable
  // across worker counts. Sorting by the full record content restores a
  // total order that depends only on what was traced, keeping the export
  // byte-identical between single- and multi-threaded runs.
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(tracer.spans().size());
  for (const auto& span : tracer.spans()) ordered.push_back(&span);
  std::sort(ordered.begin(), ordered.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return std::tie(a->start, a->track, a->name, a->end, a->instant,
                              a->args) < std::tie(b->start, b->track, b->name,
                                                  b->end, b->instant, b->args);
            });

  // Dense tid per first-seen track (in canonical order), plus thread_name
  // metadata so the trace viewer shows the track string instead of a bare
  // number.
  std::map<std::string, int> tid_of;
  std::vector<std::string> track_order;
  for (const SpanRecord* span : ordered) {
    if (tid_of.emplace(span->track, static_cast<int>(track_order.size()))
            .second) {
      track_order.push_back(span->track);
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < track_order.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
           std::to_string(i) + ",\"args\":{\"name\":" + quoted(track_order[i]) +
           "}}";
  }
  for (const SpanRecord* span_ptr : ordered) {
    const SpanRecord& span = *span_ptr;
    if (!first) out += ',';
    first = false;
    const std::int64_t dur = span.end >= span.start ? span.end - span.start : 0;
    out += "{\"name\":" + quoted(span.name) + ",\"ph\":\"" +
           (span.instant ? 'i' : 'X') +
           "\",\"pid\":0,\"tid\":" + std::to_string(tid_of[span.track]) +
           ",\"ts\":" + std::to_string(span.start);
    if (span.instant) {
      out += ",\"s\":\"t\"";
    } else {
      out += ",\"dur\":" + std::to_string(dur);
    }
    if (!span.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : span.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += quoted(k);
        out += ':';
        out += quoted(v);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << content;
  return static_cast<bool>(f);
}

}  // namespace hc::obs
