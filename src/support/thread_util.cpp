#include "support/thread_util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>

namespace alps::support {

void set_current_thread_name(const std::string& name) {
  // Linux limits thread names to 15 chars + NUL.
  std::string trimmed = name.substr(0, 15);
  pthread_setname_np(pthread_self(), trimmed.c_str());
}

bool try_boost_priority() {
  // First attempt: real-time round-robin at minimum RT priority.
  sched_param sp{};
  sp.sched_priority = sched_get_priority_min(SCHED_RR);
  if (pthread_setschedparam(pthread_self(), SCHED_RR, &sp) == 0) return true;
  // Fallback: lower niceness (needs CAP_SYS_NICE for negative values; try a
  // modest step and accept failure silently).
  errno = 0;
  const int cur = getpriority(PRIO_PROCESS, 0);
  if (errno == 0 && setpriority(PRIO_PROCESS, 0, std::max(cur - 5, -20)) == 0) {
    return true;
  }
  return false;
}

}  // namespace alps::support
