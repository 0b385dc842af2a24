// Runtime on/off switch shared by the span tracer and the metrics registry.
//
// set_enabled(false) mutes recording behind one predictable branch per
// event, which is what bench_obs uses to price the enabled instrumentation
// inside a single binary (the `obs_overhead` key).
#pragma once

namespace yoso::obs {

inline bool& enabled_flag() {
  static bool on = true;  // constant-initialized: no guard on the hot path
  return on;
}
inline bool enabled() { return enabled_flag(); }
inline void set_enabled(bool on) { enabled_flag() = on; }

}  // namespace yoso::obs
