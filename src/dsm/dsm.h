#ifndef POLARMP_DSM_DSM_H_
#define POLARMP_DSM_DSM_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/lock_rank.h"
#include "rdma/fabric.h"

namespace polarmp {

// Pointer into disaggregated shared memory: (memory-server index, offset).
struct DsmPtr {
  uint32_t server = UINT32_MAX;
  uint64_t offset = 0;

  bool valid() const { return server != UINT32_MAX; }
  uint64_t Pack() const { return (static_cast<uint64_t>(server) << 48) | offset; }
  static DsmPtr Unpack(uint64_t v) {
    return DsmPtr{static_cast<uint32_t>(v >> 48), v & 0xFFFFFFFFFFFFull};
  }
  bool operator==(const DsmPtr& o) const {
    return server == o.server && offset == o.offset;
  }
};

inline constexpr DsmPtr kNullDsmPtr{};

// Disaggregated shared memory (§3: "PMFS is implemented with a disaggregated
// shared memory, typically consisting of multiple nodes and providing high
// availability").
//
// A Dsm instance models a pool of memory servers, each hosting one large
// fabric-registered region. Compute nodes read/write DSM through one-sided
// fabric verbs; PMFS components that are co-located with the memory servers
// (the DBP directory, the flusher) use HostPtr() for latency-free access,
// exactly as server-side software touches its own DRAM.
//
// DSM survives compute-node crashes (the memory servers are a separate
// failure domain); that is what enables PolarDB-MP's fast recovery (§5.5).
// Memory-server failure is handled in the paper by replication inside the
// DSM layer; here DSM loss is simulated by Reset(), after which recovery
// must fall back to shared storage + logs.
class Dsm {
 public:
  // Creates `num_servers` simulated memory servers of `bytes_per_server`.
  Dsm(Fabric* fabric, uint32_t num_servers, uint64_t bytes_per_server);
  ~Dsm();

  Dsm(const Dsm&) = delete;
  Dsm& operator=(const Dsm&) = delete;

  // Bump-allocates `size` bytes (8-byte aligned) on the least-loaded server.
  StatusOr<DsmPtr> Allocate(uint64_t size);

  // One-sided access from compute node `from` (a fabric endpoint id).
  Status Read(EndpointId from, DsmPtr ptr, void* dst, uint64_t len) const;
  Status Write(EndpointId from, DsmPtr ptr, const void* src, uint64_t len) const;
  StatusOr<uint64_t> FetchAdd64(EndpointId from, DsmPtr ptr, uint64_t delta) const;
  StatusOr<uint64_t> Load64(EndpointId from, DsmPtr ptr) const;
  Status Store64(EndpointId from, DsmPtr ptr, uint64_t value) const;

  // Seqlock-framed page transfer, priced as ONE verb: real RDMA NICs post
  // the guard-word updates and the payload as a single doorbell-batched
  // work request. Layout at `frame`: [seq u64][payload...].
  Status WriteSeqlocked(EndpointId from, DsmPtr frame, const void* src,
                        uint64_t len) const;
  Status ReadSeqlocked(EndpointId from, DsmPtr frame, void* dst,
                       uint64_t len) const;
  // Same read, additionally returning the (even) seqlock word the stable
  // copy was taken at. The word only changes when a writer publishes a new
  // version, so callers can keep it as a content version: a later read that
  // observes the same word read an identical image (the compute-side index
  // cache uses this to tell "refreshed, content unchanged" from "refreshed
  // to a newer image" without diffing pages).
  Status ReadSeqlocked(EndpointId from, DsmPtr frame, void* dst, uint64_t len,
                       uint64_t* version_out) const;

  // Direct host access for components co-located with the memory servers.
  char* HostPtr(DsmPtr ptr) const;

  // Host-side (latency-free) write into a segment by a co-located component
  // — the undo store's local image, the DBP flusher. Writes into
  // fabric-registered memory must go through the Dsm so torn-access
  // disciplines stay in one place (polarlint rule no-hostptr-memcpy bans
  // raw memcpy into HostPtr memory outside src/dsm + src/rdma).
  void HostWrite(DsmPtr ptr, const void* src, uint64_t len) const;

  // Host-side seqlock-framed page write; same layout as WriteSeqlocked
  // ([seq u64][payload...]) with no latency charge.
  void HostWriteSeqlocked(DsmPtr frame, const void* src, uint64_t len) const;

  // Drops all contents (simulates losing the DSM tier); allocations reset.
  void Reset();

  const LatencyProfile& fabric_profile() const { return fabric_->profile(); }

  uint64_t bytes_per_server() const { return bytes_per_server_; }
  uint32_t num_servers() const { return num_servers_; }
  uint64_t allocated_bytes() const;

  static EndpointId ServerEndpoint(uint32_t server) {
    return kDsmEndpointBase + server;
  }

 private:
  // One attempt of the seqlocked read; the public entry retries injected
  // transients (rdma/retry_policy.h) around it.
  Status ReadSeqlockedOnce(EndpointId from, DsmPtr frame, void* dst,
                           uint64_t len, uint64_t* version_out) const;

  struct FreeSegment {
    void operator()(char* segment) const { std::free(segment); }
  };

  Fabric* const fabric_;
  const uint32_t num_servers_;
  const uint64_t bytes_per_server_;
  // Sized in the constructor and never resized; segment contents are
  // synchronized by the fabric's access disciplines (seqlock framing,
  // remote atomics), not by alloc_mu_.
  // polarlint: unguarded(vector frozen after construction)
  std::vector<std::unique_ptr<char, FreeSegment>> memory_;
  mutable RankedMutex alloc_mu_{LockRank::kDsm, "dsm.alloc"};
  std::vector<uint64_t> next_free_ GUARDED_BY(alloc_mu_);
};

}  // namespace polarmp

#endif  // POLARMP_DSM_DSM_H_
