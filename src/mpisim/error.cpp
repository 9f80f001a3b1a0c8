#include "src/mpisim/error.hpp"

namespace mpisim {

const char* errc_name(Errc e) noexcept {
  switch (e) {
    case Errc::internal: return "internal";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::rank_out_of_range: return "rank_out_of_range";
    case Errc::type_mismatch: return "type_mismatch";
    case Errc::truncation: return "truncation";
    case Errc::window_bounds: return "window_bounds";
    case Errc::no_epoch: return "no_epoch";
    case Errc::double_lock: return "double_lock";
    case Errc::not_locked: return "not_locked";
    case Errc::rma_conflict: return "rma_conflict";
    case Errc::rma_race: return "rma_race";
    case Errc::comm_mismatch: return "comm_mismatch";
    case Errc::aborted: return "aborted";
    case Errc::wait_timeout: return "wait_timeout";
    case Errc::transient: return "transient";
    case Errc::resource_exhausted: return "resource_exhausted";
    case Errc::crashed: return "crashed";
    case Errc::revoked: return "revoked";
  }
  return "unknown";
}

MpiError::MpiError(Errc code, const std::string& what)
    : std::runtime_error(std::string("[") + errc_name(code) + "] " + what),
      code_(code) {}

void raise(Errc code, const std::string& detail) {
  throw MpiError(code, "mpisim: " + detail);
}

void require_internal(bool cond, const char* what) {
  if (!cond) raise(Errc::internal, what);
}

}  // namespace mpisim
