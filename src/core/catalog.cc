#include "core/catalog.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "storage/buffer_pool.h"
#include "util/string_util.h"

namespace gmine::core {

namespace fs = std::filesystem;

namespace internal {

/// One registered store. `mu` guards the open/close transitions and the
/// refcount; the store/pool pointers only change while refs == 0, so a
/// live lease may use its cached pointers without the lock.
struct CatalogEntry {
  std::string name;
  std::string path;
  size_t quota = 0;  // 0 = unlimited

  std::mutex mu;
  std::unique_ptr<gtree::GTreeStore> store;
  std::unique_ptr<SessionManager> pool;
  size_t refs = 0;
};

}  // namespace internal

using internal::CatalogEntry;

namespace {

constexpr char kStoreSuffix[] = ".gtree";

bool ValidStoreName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// CatalogSession

CatalogSession::CatalogSession(Catalog* catalog, CatalogEntry* entry,
                               gtree::GTreeStore* store,
                               SessionManager* pool, SessionId id)
    : catalog_(catalog), entry_(entry), store_(store), pool_(pool),
      id_(id) {}

CatalogSession::CatalogSession(CatalogSession&& other) noexcept
    : catalog_(other.catalog_), entry_(other.entry_), store_(other.store_),
      pool_(other.pool_), id_(other.id_) {
  other.catalog_ = nullptr;
  other.entry_ = nullptr;
  other.store_ = nullptr;
  other.pool_ = nullptr;
  other.id_ = 0;
}

CatalogSession& CatalogSession::operator=(CatalogSession&& other) noexcept {
  if (this != &other) {
    Release();
    catalog_ = other.catalog_;
    entry_ = other.entry_;
    store_ = other.store_;
    pool_ = other.pool_;
    id_ = other.id_;
    other.catalog_ = nullptr;
    other.entry_ = nullptr;
    other.store_ = nullptr;
    other.pool_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

CatalogSession::~CatalogSession() { Release(); }

const std::string& CatalogSession::store_name() const {
  static const std::string kEmpty;
  return entry_ != nullptr ? entry_->name : kEmpty;
}

Status CatalogSession::With(
    const std::function<Status(gtree::NavigationSession&)>& fn) {
  if (!valid()) return Status::NotFound("released catalog session");
  return pool_->WithSession(id_, fn);
}

bool CatalogSession::Touch() {
  return valid() && pool_->TouchSession(id_);
}

void CatalogSession::Release() {
  if (!valid()) return;
  catalog_->ReleaseSession(entry_, id_);
  catalog_ = nullptr;
  entry_ = nullptr;
  store_ = nullptr;
  pool_ = nullptr;
  id_ = 0;
}

// ---------------------------------------------------------------------------
// Catalog

Catalog::Catalog(CatalogOptions options) : options_(std::move(options)) {
  if (options_.mem_budget_bytes > 0) {
    storage::BufferPool& pool = options_.store.buffer_pool != nullptr
                                    ? *options_.store.buffer_pool
                                    : storage::BufferPool::Global();
    pool.SetBudgetBytes(options_.mem_budget_bytes);
  }
}

Catalog::~Catalog() { CloseIdle(); }

gmine::Result<std::unique_ptr<Catalog>> Catalog::OpenDirectory(
    const std::string& dir, const CatalogOptions& options) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError(
        StrFormat("catalog directory %s: %s", dir.c_str(),
                  ec.message().c_str()));
  }
  std::unique_ptr<Catalog> catalog(new Catalog(options));
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string filename = entry.path().filename().string();
    const size_t suffix = sizeof(kStoreSuffix) - 1;
    if (filename.size() <= suffix ||
        filename.compare(filename.size() - suffix, suffix, kStoreSuffix) !=
            0) {
      continue;
    }
    const std::string name = filename.substr(0, filename.size() - suffix);
    if (!ValidStoreName(name)) {
      return Status::InvalidArgument(
          StrFormat("store file %s: name must be [A-Za-z0-9._-]",
                    filename.c_str()));
    }
    auto e = std::make_unique<CatalogEntry>();
    e->name = name;
    e->path = entry.path().string();
    e->quota = options.session_quota;
    catalog->entries_.emplace(name, std::move(e));
  }
  if (catalog->entries_.empty()) {
    return Status::NotFound(
        StrFormat("no *%s stores in %s", kStoreSuffix, dir.c_str()));
  }
  return catalog;
}

gmine::Result<std::unique_ptr<Catalog>> Catalog::OpenManifest(
    const std::string& manifest_path, const CatalogOptions& options) {
  std::ifstream in(manifest_path);
  if (!in) {
    return Status::IOError(
        StrFormat("cannot read manifest %s", manifest_path.c_str()));
  }
  const fs::path base = fs::path(manifest_path).parent_path();
  std::unique_ptr<Catalog> catalog(new Catalog(options));
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string trimmed = std::string(TrimWhitespace(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream fields(trimmed);
    std::string name, path, quota_text, extra;
    fields >> name >> path >> quota_text >> extra;
    if (path.empty() || !extra.empty()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: expected NAME PATH [QUOTA]",
                    manifest_path.c_str(), lineno));
    }
    if (!ValidStoreName(name)) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: store name must be [A-Za-z0-9._-]",
                    manifest_path.c_str(), lineno));
    }
    size_t quota = options.session_quota;
    if (!quota_text.empty()) {
      uint64_t parsed = 0;
      if (!ParseUint64(quota_text, &parsed)) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: bad quota '%s'", manifest_path.c_str(),
                      lineno, quota_text.c_str()));
      }
      quota = static_cast<size_t>(parsed);
    }
    fs::path resolved = fs::path(path);
    if (resolved.is_relative()) resolved = base / resolved;
    std::error_code ec;
    if (!fs::is_regular_file(resolved, ec)) {
      return Status::IOError(
          StrFormat("%s:%zu: store file %s missing", manifest_path.c_str(),
                    lineno, resolved.string().c_str()));
    }
    auto e = std::make_unique<CatalogEntry>();
    e->name = name;
    e->path = resolved.string();
    e->quota = quota;
    if (!catalog->entries_.emplace(name, std::move(e)).second) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: duplicate store name '%s'",
                    manifest_path.c_str(), lineno, name.c_str()));
    }
  }
  if (catalog->entries_.empty()) {
    return Status::NotFound(
        StrFormat("manifest %s declares no stores", manifest_path.c_str()));
  }
  return catalog;
}

std::vector<std::string> Catalog::store_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

void Catalog::FillInfoLocked(const CatalogEntry& entry,
                             CatalogStoreInfo* out) const {
  out->name = entry.name;
  out->path = entry.path;
  out->quota = entry.quota;
  out->open = entry.store != nullptr;
  out->live_sessions = entry.refs;
  if (entry.store != nullptr) {
    out->file_size = entry.store->file_size();
    out->communities = entry.store->tree().size();
    out->leaves = entry.store->tree().num_leaves();
    out->height = entry.store->tree().height();
    out->labels = entry.store->labels().size();
  }
}

std::vector<CatalogStoreInfo> Catalog::ListStores() const {
  std::vector<CatalogStoreInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    std::lock_guard<std::mutex> lock(entry->mu);
    CatalogStoreInfo info;
    FillInfoLocked(*entry, &info);
    out.push_back(std::move(info));
  }
  return out;
}

gmine::Result<CatalogStoreInfo> Catalog::Info(
    const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("no store '%s'", name.c_str()));
  }
  std::lock_guard<std::mutex> lock(it->second->mu);
  CatalogStoreInfo info;
  FillInfoLocked(*it->second, &info);
  return info;
}

gmine::Result<CatalogSession> Catalog::AcquireSession(
    const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound(StrFormat("no store '%s'", name.c_str()));
  }
  CatalogEntry& e = *it->second;
  for (;;) {
    std::unique_lock<std::mutex> lock(e.mu);
    if (e.quota > 0 && e.refs >= e.quota) {
      quota_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted(
          StrFormat("store '%s' session quota (%zu) exceeded",
                    name.c_str(), e.quota));
    }
    if (e.store != nullptr) return LeaseLocked(e, /*opened=*/false);
    bool idle_open = false;
    {
      std::lock_guard<std::mutex> state(state_mu_);
      idle_open = idle_ != nullptr;
    }
    if (idle_open) {
      // The idle store closes before any other store opens.
      lock.unlock();
      CloseIdle();
      continue;
    }
    GMINE_ASSIGN_OR_RETURN(e.store,
                           gtree::GTreeStore::Open(e.path, options_.store));
    // The quota above is the admission control; the pool must never cap
    // or LRU-evict on its own, since every session here backs a live
    // lease (opened pinned in LeaseLocked).
    SessionManagerOptions smopts = options_.sessions;
    smopts.max_sessions = 0;
    e.pool = std::make_unique<SessionManager>(e.store.get(), smopts);
    opens_.fetch_add(1, std::memory_order_relaxed);
    return LeaseLocked(e, /*opened=*/true);
  }
}

gmine::Result<CatalogSession> Catalog::LeaseLocked(CatalogEntry& e,
                                                   bool opened) {
  auto sid = e.pool->OpenSession(/*pinned=*/true);
  if (!sid.ok()) {
    // A store opened for this lease closes again; the idle store stays
    // idle.
    if (opened) TeardownLocked(e);
    return sid.status();
  }
  {
    // The residency counters move in one step with the ref, so stats()
    // never sees a fresh store open but unleased next to the idle one.
    std::lock_guard<std::mutex> state(state_mu_);
    if (opened) ++open_now_;
    if (e.refs == 0) {
      ++leased_now_;
      // Claiming the idle store keeps it open. A CloseIdle already
      // tearing it down finds the ref and clears the slot itself.
      if (idle_ == &e && !idle_closing_) idle_ = nullptr;
    }
    ++sessions_now_;
  }
  ++e.refs;
  leases_.fetch_add(1, std::memory_order_relaxed);
  return CatalogSession(this, &e, e.store.get(), e.pool.get(),
                        sid.value());
}

void Catalog::TeardownLocked(CatalogEntry& e) {
  e.pool.reset();
  e.store.reset();
  closes_.fetch_add(1, std::memory_order_relaxed);
}

void Catalog::ReleaseSession(CatalogEntry* entry, SessionId id) {
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->pool != nullptr) {
      // NotFound here just means the pool reaped the session first.
      (void)entry->pool->CloseSession(id);
    }
  }
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->refs == 0) return;
      std::lock_guard<std::mutex> state(state_mu_);
      if (entry->refs > 1 || idle_ == nullptr) {
        --sessions_now_;
        if (--entry->refs == 0) {
          --leased_now_;
          idle_ = entry;
        }
        return;
      }
    }
    // Displace the older idle store, then become the idle one.
    CloseIdle();
  }
}

void Catalog::CloseIdle() {
  std::unique_lock<std::mutex> state(state_mu_);
  for (;;) {
    idle_cv_.wait(state, [this] { return !idle_closing_; });
    if (idle_ == nullptr) return;
    CatalogEntry* victim = idle_;
    idle_closing_ = true;
    state.unlock();
    std::lock_guard<std::mutex> lock(victim->mu);
    // A lease may have claimed the store since it went idle; it then
    // stays open as a leased store.
    const bool unused = victim->refs == 0;
    if (unused) TeardownLocked(*victim);
    state.lock();
    if (unused) --open_now_;
    idle_ = nullptr;
    idle_closing_ = false;
    idle_cv_.notify_all();
  }
}

CatalogStats Catalog::stats() const {
  CatalogStats out;
  out.stores = entries_.size();
  {
    std::lock_guard<std::mutex> state(state_mu_);
    out.open_now = open_now_;
    out.idle_now = open_now_ - leased_now_;
    out.sessions_now = sessions_now_;
  }
  out.opens = opens_.load(std::memory_order_relaxed);
  out.closes = closes_.load(std::memory_order_relaxed);
  out.leases = leases_.load(std::memory_order_relaxed);
  out.quota_rejections = quota_rejections_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace gmine::core
