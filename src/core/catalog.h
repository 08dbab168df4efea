// A multi-store catalog: named G-Tree stores discovered from a
// directory (every *.gtree file) or declared in a manifest, opened
// lazily on first use and kept warm for the next request after the
// last session leaves.
//
// The catalog is the piece the HTTP gateway stands on (docs/HTTP.md):
// one process fronts many stores, but a store only costs memory while
// somebody is navigating it or it is the one store kept warm.
// Lifecycle is refcounted against live sessions:
//
//   * AcquireSession(name) opens the store on demand — metadata loads,
//     leaf pages stay on disk and flow through the shared buffer pool —
//     builds its SessionManager, opens one navigation session, and
//     hands back an RAII CatalogSession lease;
//   * releasing the last lease leaves the store open as the catalog's
//     one *idle* store, with its SessionManager, its buffer-pool
//     registration and its resident pages, so the next lease on it
//     (a REST request after a REST request) pays no open at all;
//   * the idle store closes — pool and store torn down, its resident
//     pages dropped with its pool registration (per-store isolation is
//     the pool's keying invariant) — just before any other store opens,
//     when another store becomes idle (the more recently released one
//     stays), and on CloseIdle(), which Gateway::Stop and ~Catalog call;
//   * a per-store quota caps concurrent leases: past it, AcquireSession
//     answers Aborted without touching the store.
//
// Memory bound: a store opens only once the idle store has closed, and
// a store turns idle only once the previous idle store has closed. So
// the open set never exceeds what a close-on-last-release policy held
// at the moment the idle store was released (that policy, too, held it
// open until its teardown), and at most one open store is unleased.
//
// The store set is fixed at construction; entry state (open store,
// session pool, refcount) is guarded per entry, so traffic on one store
// never serializes against another except for one small lock over the
// idle slot and the shared counters. Never are two entries' locks held
// at once. Leases must not outlive the catalog.

#ifndef GMINE_CORE_CATALOG_H_
#define GMINE_CORE_CATALOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session_manager.h"
#include "gtree/navigation.h"
#include "gtree/store.h"
#include "util/status.h"

namespace gmine::core {

namespace internal {
struct CatalogEntry;
}  // namespace internal

/// Catalog tunables.
struct CatalogOptions {
  /// Concurrent leases allowed per store; 0 = unlimited. A manifest's
  /// per-store quota column overrides this default for that store.
  size_t session_quota = 64;
  /// Session-pool shape handed to every store's SessionManager. Its
  /// max_sessions is overridden to 0 (unbounded): the quota is the
  /// admission control, and sessions open pinned — each one backs a
  /// live lease, so LRU eviction must never yank one.
  SessionManagerOptions sessions;
  /// Store open options. Leave `store.buffer_pool` null to page every
  /// store through the process-wide pool.
  gtree::GTreeStoreOptions store;
  /// When > 0, construction re-arms the buffer pool's byte budget (the
  /// pool `store.buffer_pool` names — global by default) so the whole
  /// catalog shares one memory ceiling. 0 leaves the budget alone.
  uint64_t mem_budget_bytes = 0;
};

/// Point-in-time description of one catalog store.
struct CatalogStoreInfo {
  std::string name;
  std::string path;
  size_t quota = 0;          // 0 = unlimited
  bool open = false;         // store resident right now; open with
                             // no live sessions = the idle, warm store
  size_t live_sessions = 0;  // leases outstanding
  // Filled only while open:
  uint64_t file_size = 0;
  uint32_t communities = 0;  // tree nodes, root included
  uint32_t leaves = 0;
  uint32_t height = 0;
  size_t labels = 0;
};

/// Cumulative catalog counters (stats()).
struct CatalogStats {
  size_t stores = 0;        // names registered
  size_t open_now = 0;      // stores currently resident
  size_t idle_now = 0;      // resident stores no lease holds (0 or 1)
  size_t sessions_now = 0;  // leases currently outstanding
  uint64_t opens = 0;       // lazy store opens
  uint64_t closes = 0;      // store teardowns
  uint64_t leases = 0;      // sessions handed out
  uint64_t quota_rejections = 0;
};

class Catalog;

/// RAII lease on one navigation session of one catalog store. Movable,
/// not copyable; destruction (or Release) closes the session and, when
/// it was the store's last, leaves the store as the idle one. Invalid
/// (default / moved-from / released) leases answer valid() == false and
/// With returns NotFound.
class CatalogSession {
 public:
  CatalogSession() = default;
  CatalogSession(CatalogSession&& other) noexcept;
  CatalogSession& operator=(CatalogSession&& other) noexcept;
  CatalogSession(const CatalogSession&) = delete;
  CatalogSession& operator=(const CatalogSession&) = delete;
  ~CatalogSession();

  bool valid() const { return catalog_ != nullptr; }
  const std::string& store_name() const;
  SessionId id() const { return id_; }

  /// The leased store. Stable for the lease's lifetime (the lease is a
  /// ref on it); never call after Release.
  gtree::GTreeStore* store() const { return store_; }

  /// Exclusive access to the leased session (SessionManager's
  /// WithSession contract).
  Status With(const std::function<Status(gtree::NavigationSession&)>& fn);

  /// Keepalive without a callback dispatch.
  bool Touch();

  /// Closes the session and drops the store ref. Idempotent.
  void Release();

 private:
  friend class Catalog;
  CatalogSession(Catalog* catalog, internal::CatalogEntry* entry,
                 gtree::GTreeStore* store, SessionManager* pool,
                 SessionId id);

  Catalog* catalog_ = nullptr;
  internal::CatalogEntry* entry_ = nullptr;
  gtree::GTreeStore* store_ = nullptr;
  SessionManager* pool_ = nullptr;
  SessionId id_ = 0;
};

/// The store registry. Construct via OpenDirectory or OpenManifest;
/// must outlive every lease it hands out.
class Catalog {
 public:
  /// Registers every `*.gtree` file directly inside `dir` under its
  /// stem (foo.gtree -> "foo"). Fails when `dir` is unreadable or holds
  /// no stores. Nothing is opened yet.
  static gmine::Result<std::unique_ptr<Catalog>> OpenDirectory(
      const std::string& dir, const CatalogOptions& options = {});

  /// Registers stores from a manifest: one `NAME PATH [QUOTA]` line per
  /// store ('#' comments and blank lines ignored; relative paths
  /// resolve against the manifest's directory; QUOTA overrides
  /// options.session_quota). Fails on duplicate names, malformed lines
  /// or missing store files. Nothing is opened yet.
  static gmine::Result<std::unique_ptr<Catalog>> OpenManifest(
      const std::string& manifest_path, const CatalogOptions& options = {});

  ~Catalog();
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registered names, sorted.
  std::vector<std::string> store_names() const;

  /// All stores, name order.
  std::vector<CatalogStoreInfo> ListStores() const;

  /// One store; NotFound for unknown names.
  gmine::Result<CatalogStoreInfo> Info(const std::string& name) const;

  /// Leases one navigation session on `name`, reusing the store when
  /// it is open (leased or idle) and otherwise closing the idle store,
  /// then opening this one. NotFound for unknown names; Aborted past
  /// the store's quota.
  gmine::Result<CatalogSession> AcquireSession(const std::string& name);

  /// Closes the idle store, if any, unless a lease claims it first.
  /// Returns once no close is in flight.
  void CloseIdle();

  /// One consistent snapshot (taken under the idle-slot lock).
  CatalogStats stats() const;

 private:
  friend class CatalogSession;

  explicit Catalog(CatalogOptions options);
  void ReleaseSession(internal::CatalogEntry* entry, SessionId id);
  /// Callers hold `entry.mu`: opens a pooled session on the open store
  /// and takes a ref. `opened`: the caller just opened the store.
  gmine::Result<CatalogSession> LeaseLocked(internal::CatalogEntry& entry,
                                            bool opened);
  /// Callers hold `entry.mu`; the store is open and unleased.
  void TeardownLocked(internal::CatalogEntry& entry);
  void FillInfoLocked(const internal::CatalogEntry& entry,
                      CatalogStoreInfo* out) const;

  CatalogOptions options_;
  /// Immutable after construction: concurrent lookups need no lock.
  std::map<std::string, std::unique_ptr<internal::CatalogEntry>> entries_;

  // The idle slot and the residency counters. Lock order: an entry's
  // mu, then state_mu_ — never the reverse, never two entries.
  mutable std::mutex state_mu_;
  std::condition_variable idle_cv_;  // signals the end of an idle close
  internal::CatalogEntry* idle_ = nullptr;  // the open, unleased store
  bool idle_closing_ = false;  // a CloseIdle is tearing idle_ down
  size_t open_now_ = 0;
  size_t leased_now_ = 0;      // stores with refs > 0
  size_t sessions_now_ = 0;

  std::atomic<uint64_t> opens_{0};
  std::atomic<uint64_t> closes_{0};
  std::atomic<uint64_t> leases_{0};
  std::atomic<uint64_t> quota_rejections_{0};
};

}  // namespace gmine::core

#endif  // GMINE_CORE_CATALOG_H_
