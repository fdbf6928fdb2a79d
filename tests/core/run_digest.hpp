// FNV-1a digest of a run's observable outcome, for tests that pin an
// algorithm bit for bit: every double enters as its exact `%a` text, so a
// digest matches only when clocks, reports, events and results all do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/trace/events.hpp"
#include "src/trace/vclock.hpp"
#include "src/util/matrix.hpp"

namespace summagen::core {

class RunDigest {
 public:
  /// Folds one field; fields are delimited, so "1" "23" != "12" "3".
  void add(std::string_view text) {
    for (const char ch : text) mix(static_cast<unsigned char>(ch));
    mix('\n');
  }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    add(std::string_view(buf));
  }
  void add(std::int64_t v) { add(std::string_view(std::to_string(v))); }

  /// A rank's clock: now, compute, comm, idle.
  void add(const trace::VirtualClock& clock) {
    add(clock.now());
    add(clock.compute_seconds());
    add(clock.comm_seconds());
    add(clock.idle_seconds());
  }

  /// The event log in a total order (rank, start, end, then the rest), so
  /// the digest does not depend on how rank fibers interleaved appends.
  void add(const trace::EventLog& log) {
    std::vector<trace::Event> events = log.sorted();
    const auto key = [](const trace::Event& e) {
      return std::tie(e.rank, e.vstart, e.vend, e.kind, e.bytes, e.flops,
                      e.detail);
    };
    std::sort(events.begin(), events.end(),
              [&key](const trace::Event& a, const trace::Event& b) {
                return key(a) < key(b);
              });
    for (const trace::Event& e : events) {
      add(std::int64_t{e.rank});
      add(std::string_view(trace::to_string(e.kind)));
      add(e.vstart);
      add(e.vend);
      add(e.bytes);
      add(e.flops);
      add(std::string_view(e.detail));
    }
  }

  /// A matrix's raw bytes, row by row.
  void add(const util::Matrix& m) {
    for (std::int64_t i = 0; i < m.rows(); ++i) {
      for (std::int64_t j = 0; j < m.cols(); ++j) {
        unsigned char bytes[sizeof(double)];
        const double v = m(i, j);
        std::memcpy(bytes, &v, sizeof v);
        for (const unsigned char b : bytes) mix(b);
      }
    }
    mix('\n');
  }

  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace summagen::core
