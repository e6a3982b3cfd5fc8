// Nonblocking readiness loop — the first layer where the simulator meets
// the OS. Level-triggered epoll (the system is Linux-only: TUN,
// recvmmsg/sendmmsg), one-shot timers, and a thread-safe post() queue with a
// self-pipe wakeup.
//
// Like the line card, the loop is designed to be driven two ways with
// identical results:
//   * deterministic mode — a test calls run_once() in a loop (mirroring
//     LineCard::step()), optionally with manual time so timers fire only
//     when the test advances the clock: no real time, no threads, byte
//     reproducible;
//   * threaded mode — one thread calls run(), every other thread talks to
//     the loop exclusively through post()/stop().
//
// Thread contract: add_fd/modify_fd/remove_fd/add_timer/cancel_timer and
// run_once are loop-context only (the run() thread, or inside callbacks and
// posted tasks). post(), stop() and stopped() are thread-safe.
//
// Shutdown ordering: post() and stop() are linearized against each other
// (both take the task lock), so every post() either lands before the stop —
// in which case run() executes it before returning (final drain) — or lands
// after, in which case post() returns false and enqueues nothing. A task is
// never silently stranded in the queue by a racing stop(): it runs, or its
// producer observed the drop. Custom drivers that call run_once() in their
// own loop get the same guarantee by calling drain_posted() after their
// stop flag trips.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "transport/socket.hpp"

namespace p5::transport {

inline constexpr u32 kReadable = 1u << 0;
inline constexpr u32 kWritable = 1u << 1;
inline constexpr u32 kIoError = 1u << 2;  ///< HUP/ERR — always delivered

class EventLoop {
 public:
  using IoCallback = std::function<void(u32 events)>;
  using TimerId = u64;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // ---- fd registration ----
  void add_fd(int fd, u32 interest, IoCallback cb);
  void modify_fd(int fd, u32 interest);
  void remove_fd(int fd);
  [[nodiscard]] std::size_t watched_fds() const { return fds_.size(); }

  // ---- one-shot timers ----
  TimerId add_timer(u64 delay_ms, std::function<void()> cb);
  void cancel_timer(TimerId id);
  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }

  // ---- time ----
  /// Monotonic milliseconds since loop construction (or the manual clock).
  [[nodiscard]] u64 now_ms() const;
  /// Deterministic tests: freeze the clock before scheduling anything; time
  /// then advances only through advance_time(), and run_once never blocks.
  void enable_manual_time();
  void advance_time(u64 ms);
  [[nodiscard]] bool manual_time() const { return manual_time_; }

  // ---- dispatch ----
  /// One bounded slice: wait at most `timeout_ms` for readiness (clamped to
  /// the next timer deadline; manual-time loops never block), then dispatch
  /// ready fds, due timers and posted tasks. Returns callbacks dispatched.
  std::size_t run_once(int timeout_ms = 0);
  /// run_once(100) until stop(), then drain_posted() — tasks accepted before
  /// the stop still run. One-shot: construct a fresh loop to rerun.
  void run();
  void stop();  // thread-safe; wakes a blocked run_once
  [[nodiscard]] bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Thread-safe: queue `fn` for execution on the loop context. Returns
  /// false — and enqueues nothing — once the loop has been stopped; the
  /// caller has then observed the drop (see the shutdown-ordering contract
  /// in the header comment).
  bool post(std::function<void()> fn);
  /// Loop-context: execute every task queued so far and return how many ran.
  /// run() calls this after its stop; custom run_once() drivers should too.
  std::size_t drain_posted();

 private:
  struct FdEntry {
    u32 interest = 0;
    u64 gen = 0;  ///< guards dispatch against fd-number reuse mid-slice
    IoCallback cb;
  };
  struct Ready {
    int fd;
    u64 gen;
    u32 events;
  };

  int wait_budget_ms(int timeout_ms) const;
  void collect_ready(int wait_ms);
  void drain_wakeup();

  Fd epoll_fd_;
  Fd wake_rd_, wake_wr_;
  std::map<int, FdEntry> fds_;
  u64 gen_counter_ = 0;

  std::multimap<u64, std::pair<TimerId, std::function<void()>>> timers_;
  TimerId next_timer_id_ = 1;

  bool manual_time_ = false;
  u64 manual_now_ms_ = 0;
  u64 epoch_ns_ = 0;

  std::atomic<bool> stopped_{false};
  std::mutex task_mu_;
  std::vector<std::function<void()>> tasks_;

  std::vector<Ready> ready_;  ///< per-slice scratch
};

}  // namespace p5::transport
