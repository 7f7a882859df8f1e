#include "src/sequencer/sequencer_service.h"

#include <cassert>
#include <string>

#include "src/common/thread_name.h"

namespace eunomia::seq {

// --- SequencerService --------------------------------------------------------

SequencerService::~SequencerService() { Stop(); }

void SequencerService::Start() {
  if (running_.exchange(true)) {
    return;
  }
  server_ = std::thread([this] {
    SetCurrentThreadName("seq-server");
    ServerLoop();
  });
}

void SequencerService::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  queue_cv_.NotifyAll();
  if (server_.joinable()) {
    server_.join();
  }
  // Fail any stranded requests so callers unblock.
  sync::MutexLock lock(queue_mu_);
  for (Request* req : queue_) {
    sync::MutexLock rlock(req->mu);
    req->result = counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    req->done = true;
    req->cv.NotifyOne();
  }
  queue_.clear();
}

std::uint64_t SequencerService::Next() {
  Request req;
  {
    sync::MutexLock lock(queue_mu_);
    queue_.push_back(&req);
  }
  queue_cv_.NotifyOne();
  sync::MutexLock rlock(req.mu);
  while (!req.done) {
    req.cv.Wait(req.mu);
  }
  return req.result;
}

void SequencerService::ServerLoop() {
  std::vector<Request*> batch;
  while (running_.load(std::memory_order_relaxed)) {
    {
      sync::MutexLock lock(queue_mu_);
      while (queue_.empty() && running_.load(std::memory_order_relaxed)) {
        queue_cv_.Wait(queue_mu_);
      }
      batch.swap(queue_);
    }
    // One request at a time: the sequencer cannot batch without blocking
    // clients (§7.1 "any attempt to batch requests at the sequencer blocks
    // clients").
    for (Request* req : batch) {
      const std::uint64_t n = counter_.fetch_add(1, std::memory_order_relaxed) + 1;
      sync::MutexLock rlock(req->mu);
      req->result = n;
      req->done = true;
      req->cv.NotifyOne();
    }
    batch.clear();
  }
}

// --- ChainSequencerService ---------------------------------------------------

ChainSequencerService::ChainSequencerService(std::uint32_t chain_length) {
  assert(chain_length >= 1);
  for (std::uint32_t i = 0; i < chain_length; ++i) {
    stages_.push_back(std::make_unique<Stage>());
  }
}

ChainSequencerService::~ChainSequencerService() { Stop(); }

void ChainSequencerService::Start() {
  if (running_.exchange(true)) {
    return;
  }
  for (std::uint32_t i = 0; i < stages_.size(); ++i) {
    stages_[i]->thread = std::thread([this, i] {
      SetCurrentThreadName("seq-stage-" + std::to_string(i));
      StageLoop(i);
    });
  }
}

void ChainSequencerService::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  for (auto& stage : stages_) {
    stage->cv.NotifyAll();
  }
  for (auto& stage : stages_) {
    if (stage->thread.joinable()) {
      stage->thread.join();
    }
  }
  // Unblock stranded requests.
  for (auto& stage : stages_) {
    sync::MutexLock lock(stage->mu);
    for (auto& [req, value] : stage->queue) {
      sync::MutexLock rlock(req->mu);
      req->result = value;
      req->done = true;
      req->cv.NotifyOne();
    }
    stage->queue.clear();
  }
}

std::uint64_t ChainSequencerService::Next() {
  Request req;
  {
    // Head of the chain assigns the number.
    Stage& head = *stages_[0];
    sync::MutexLock lock(head.mu);
    head.queue.emplace_back(&req, 0);
  }
  stages_[0]->cv.NotifyOne();
  sync::MutexLock rlock(req.mu);
  while (!req.done) {
    req.cv.Wait(req.mu);
  }
  return req.result;
}

void ChainSequencerService::StageLoop(std::uint32_t index) {
  Stage& stage = *stages_[index];
  const bool is_head = index == 0;
  const bool is_tail = index + 1 == stages_.size();
  std::vector<std::pair<Request*, std::uint64_t>> batch;
  while (running_.load(std::memory_order_relaxed)) {
    {
      sync::MutexLock lock(stage.mu);
      while (stage.queue.empty() && running_.load(std::memory_order_relaxed)) {
        stage.cv.Wait(stage.mu);
      }
      batch.swap(stage.queue);
    }
    for (auto& [req, value] : batch) {
      if (is_head) {
        value = ++head_counter_;
      }
      stage.replicated_counter = value;  // every replica learns the number
      if (is_tail) {
        sync::MutexLock rlock(req->mu);
        req->result = value;
        req->done = true;
        req->cv.NotifyOne();
      } else {
        Stage& next = *stages_[index + 1];
        {
          sync::MutexLock lock(next.mu);
          next.queue.emplace_back(req, value);
        }
        next.cv.NotifyOne();
      }
    }
    batch.clear();
  }
}

}  // namespace eunomia::seq
