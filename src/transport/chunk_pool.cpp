#include "transport/chunk_pool.hpp"

#include "common/check.hpp"
#include "transport/stats.hpp"

namespace p5::transport {

struct ChunkPool::Core {
  TransportTelemetry* tel = nullptr;
  std::vector<ChunkRef::Chunk*> free_list;
  bool closed = false;
  std::atomic<u64> allocated{0};
  std::atomic<u64> recycled{0};
  std::atomic<u64> outstanding{0};
};

struct ChunkRef::Chunk {
  Bytes data;
  std::shared_ptr<ChunkPool::Core> core;
};

Bytes& ChunkRef::data() {
  P5_EXPECTS(c_ != nullptr);
  return c_->data;
}

const Bytes& ChunkRef::data() const {
  P5_EXPECTS(c_ != nullptr);
  return c_->data;
}

BytesView ChunkRef::view() const {
  P5_EXPECTS(c_ != nullptr);
  return BytesView(c_->data.data(), c_->data.size());
}

void ChunkRef::release() {
  Chunk* c = std::exchange(c_, nullptr);
  if (c == nullptr) return;
  ChunkPool::Core& core = *c->core;
  core.outstanding.fetch_sub(1, std::memory_order_relaxed);
  if (core.closed || core.free_list.size() >= ChunkPool::kMaxFree) {
    delete c;  // the chunk outlived its pool (or the list is full): just free
    return;
  }
  c->data.clear();
  if (c->data.capacity() > ChunkPool::kRetainCapacity) {
    Bytes().swap(c->data);  // give oversize capacity back to the allocator
  }
  core.free_list.push_back(c);
}

ChunkPool::ChunkPool(TransportTelemetry* tel) : core_(std::make_shared<Core>()) {
  core_->tel = tel;
}

ChunkPool::~ChunkPool() {
  core_->closed = true;
  core_->tel = nullptr;
  for (ChunkRef::Chunk* c : core_->free_list) delete c;
  core_->free_list.clear();
  // Outstanding chunks hold the core alive and free themselves on release.
}

ChunkRef ChunkPool::acquire(std::size_t reserve_bytes) {
  ChunkRef::Chunk* c;
  if (!core_->free_list.empty()) {
    c = core_->free_list.back();
    core_->free_list.pop_back();
    core_->recycled.fetch_add(1, std::memory_order_relaxed);
    if (core_->tel) core_->tel->pool_recycled();
  } else {
    c = new ChunkRef::Chunk;
    c->core = core_;
    core_->allocated.fetch_add(1, std::memory_order_relaxed);
  }
  c->data.clear();
  c->data.reserve(reserve_bytes);
  core_->outstanding.fetch_add(1, std::memory_order_relaxed);
  return ChunkRef(c);
}

ChunkPool::Counters ChunkPool::counters() const {
  Counters out;
  out.allocated = core_->allocated.load(std::memory_order_relaxed);
  out.recycled = core_->recycled.load(std::memory_order_relaxed);
  out.outstanding = core_->outstanding.load(std::memory_order_relaxed);
  return out;
}

}  // namespace p5::transport
