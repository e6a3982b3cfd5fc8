#include "transport/event_loop.hpp"

#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.hpp"

namespace p5::transport {

namespace {

u64 monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
}

u32 from_epoll(u32 ev) {
  u32 out = 0;
  if (ev & (EPOLLIN | EPOLLRDHUP)) out |= kReadable;
  if (ev & EPOLLOUT) out |= kWritable;
  if (ev & (EPOLLERR | EPOLLHUP)) out |= kIoError;
  return out;
}

u32 to_epoll(u32 interest) {
  u32 ev = EPOLLRDHUP;  // half-close surfaces as readable EOF
  if (interest & kReadable) ev |= EPOLLIN;
  if (interest & kWritable) ev |= EPOLLOUT;
  return ev;
}

}  // namespace

EventLoop::EventLoop() {
  int pipe_fds[2] = {-1, -1};
  P5_ENSURES(::pipe(pipe_fds) == 0);
  wake_rd_ = Fd(pipe_fds[0]);
  wake_wr_ = Fd(pipe_fds[1]);
  P5_ENSURES(set_nonblocking(wake_rd_.get()) && set_nonblocking(wake_wr_.get()));
  epoll_fd_ = Fd(::epoll_create1(0));
  P5_ENSURES(epoll_fd_.valid());
  epoch_ns_ = monotonic_ns();
  add_fd(wake_rd_.get(), kReadable, [this](u32) { drain_wakeup(); });
}

EventLoop::~EventLoop() = default;

void EventLoop::add_fd(int fd, u32 interest, IoCallback cb) {
  P5_EXPECTS(fd >= 0 && cb != nullptr);
  P5_EXPECTS(fds_.find(fd) == fds_.end());
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  P5_ENSURES(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) == 0);
  fds_[fd] = FdEntry{interest, ++gen_counter_, std::move(cb)};
}

void EventLoop::modify_fd(int fd, u32 interest) {
  auto it = fds_.find(fd);
  P5_EXPECTS(it != fds_.end());
  if (it->second.interest == interest) return;
  it->second.interest = interest;
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  P5_ENSURES(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) == 0);
}

void EventLoop::remove_fd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(it);
}

EventLoop::TimerId EventLoop::add_timer(u64 delay_ms, std::function<void()> cb) {
  P5_EXPECTS(cb != nullptr);
  const TimerId id = next_timer_id_++;
  timers_.emplace(now_ms() + delay_ms, std::make_pair(id, std::move(cb)));
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->second.first == id) {
      timers_.erase(it);
      return;
    }
  }
}

u64 EventLoop::now_ms() const {
  if (manual_time_) return manual_now_ms_;
  return (monotonic_ns() - epoch_ns_) / 1'000'000ull;
}

void EventLoop::enable_manual_time() {
  P5_EXPECTS(timers_.empty());  // deadlines already stamped would misfire
  manual_time_ = true;
  manual_now_ms_ = 0;
}

void EventLoop::advance_time(u64 ms) {
  P5_EXPECTS(manual_time_);
  manual_now_ms_ += ms;
}

int EventLoop::wait_budget_ms(int timeout_ms) const {
  if (manual_time_) return 0;  // never block the deterministic driver
  if (timeout_ms <= 0) return 0;
  int budget = timeout_ms;
  if (!timers_.empty()) {
    const u64 now = now_ms();
    const u64 due = timers_.begin()->first;
    const u64 until = due > now ? due - now : 0;
    if (until < static_cast<u64>(budget)) budget = static_cast<int>(until);
  }
  return budget;
}

void EventLoop::collect_ready(int wait_ms) {
  ready_.clear();
  epoll_event evs[64];
  int n = ::epoll_wait(epoll_fd_.get(), evs, 64, wait_ms);
  if (n < 0 && errno != EINTR) P5_ASSERT(false);
  for (int i = 0; i < n; ++i) {
    auto it = fds_.find(evs[i].data.fd);
    if (it == fds_.end()) continue;
    ready_.push_back(Ready{it->first, it->second.gen, from_epoll(evs[i].events)});
  }
}

void EventLoop::drain_wakeup() {
  char buf[64];
  while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
  }
}

std::size_t EventLoop::run_once(int timeout_ms) {
  std::size_t dispatched = 0;

  collect_ready(wait_budget_ms(timeout_ms));
  for (const Ready& r : ready_) {
    // A callback may close fds and accept new ones, letting the kernel hand
    // the same number back mid-slice; the generation stamp rejects events
    // harvested for the previous owner.
    auto it = fds_.find(r.fd);
    if (it == fds_.end() || it->second.gen != r.gen) continue;
    const u32 wanted = r.events & (it->second.interest | kIoError);
    if (wanted == 0) continue;
    IoCallback cb = it->second.cb;  // copy: callback may remove_fd(itself)
    cb(wanted);
    ++dispatched;
  }

  const u64 now = now_ms();
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto fn = std::move(timers_.begin()->second.second);
    timers_.erase(timers_.begin());
    fn();
    ++dispatched;
  }

  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks.swap(tasks_);
  }
  for (auto& fn : tasks) {
    fn();
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::run() {
  while (!stopped_.load(std::memory_order_acquire)) run_once(100);
  // A post() that won the race against stop() has already enqueued its task
  // but run_once may never see it; drain here so "post returned true" always
  // means "the task ran" (the shutdown-ordering contract in the header).
  drain_posted();
}

void EventLoop::stop() {
  {
    // Taking the task lock linearizes stop() against concurrent post():
    // every post() either completed its enqueue before this store (run()'s
    // final drain executes it) or observes stopped_ and rejects.
    std::lock_guard<std::mutex> lock(task_mu_);
    stopped_.store(true, std::memory_order_release);
  }
  const char byte = 0;
  (void)!::write(wake_wr_.get(), &byte, 1);
}

bool EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    if (stopped_.load(std::memory_order_acquire)) return false;
    tasks_.push_back(std::move(fn));
  }
  const char byte = 0;
  (void)!::write(wake_wr_.get(), &byte, 1);
  return true;
}

std::size_t EventLoop::drain_posted() {
  std::size_t ran = 0;
  // Loop: a drained task may itself post (its post still succeeds only
  // pre-stop; after stop the enqueue is rejected, so this terminates).
  for (;;) {
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      tasks.swap(tasks_);
    }
    if (tasks.empty()) return ran;
    for (auto& fn : tasks) {
      fn();
      ++ran;
    }
  }
}

}  // namespace p5::transport
