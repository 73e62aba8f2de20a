// Thread naming and priority. The paper (§1, §3) wants the manager executed
// at a higher priority than the worker processes of the object; containers
// usually forbid raising priority, so try_boost_priority() is best-effort and
// reports whether it took effect. The manager additionally always gets a
// dedicated thread, which preserves the intent (receptiveness to entry calls)
// even when priorities are unavailable.
#pragma once

#include <string>

namespace alps::support {

/// Sets the current thread's name (visible in /proc and debuggers).
void set_current_thread_name(const std::string& name);

/// Tries to lower the current thread's niceness / raise its scheduling
/// priority. Returns true if any boost was applied.
bool try_boost_priority();

}  // namespace alps::support
