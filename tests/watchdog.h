#ifndef POLARMP_TESTS_WATCHDOG_H_
#define POLARMP_TESTS_WATCHDOG_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace polarmp {

// Aborts the test binary if the scope that owns it is still open after
// `limit`, printing `dump()` first. A deadlocked test then fails with the
// lock state instead of hanging until the ctest timeout.
class Watchdog {
 public:
  Watchdog(std::chrono::seconds limit, std::function<std::string()> dump)
      : thread_([this, limit, dump = std::move(dump)] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: still running after %llds\n%s",
                         static_cast<long long>(limit.count()),
                         dump().c_str());
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the state it reads
};

}  // namespace polarmp

#endif  // POLARMP_TESTS_WATCHDOG_H_
