#ifndef MPISIM_ERROR_HPP
#define MPISIM_ERROR_HPP

/// \file error.hpp
/// Error classification for the simulated MPI runtime.
///
/// The simulator enforces MPI-2 semantics strictly: violations that a real
/// MPI library declares "erroneous" (conflicting accesses in an epoch,
/// double-locking a window, type mismatches) raise MpiError here, so the
/// layers above (ARMCI-MPI) must actually implement the paper's avoidance
/// machinery rather than relying on the shared-memory substrate's leniency.

#include <stdexcept>
#include <string>

namespace mpisim {

/// Error classes reported by the simulated runtime.
enum class Errc {
  internal,            ///< bug in the simulator itself
  invalid_argument,    ///< bad count / rank / displacement / datatype
  rank_out_of_range,   ///< rank not in communicator
  type_mismatch,       ///< send/recv or origin/target datatype size mismatch
  truncation,          ///< receive buffer too small for matched message
  window_bounds,       ///< RMA access outside the target window
  no_epoch,            ///< RMA op issued outside a passive-target epoch
  double_lock,         ///< origin already holds a lock on this window
  not_locked,          ///< unlock without a matching lock
  rma_conflict,        ///< MPI-2 conflicting accesses (rma_check), reported
                       ///< at unlock/flush/local-access-end (checker.hpp)
  rma_race,            ///< conflicting accesses unordered by happens-before
                       ///< (vector-clock race detector, hb.hpp)
  comm_mismatch,       ///< operation on the wrong communicator kind
  aborted,             ///< another rank failed; collective shutdown
  wait_timeout,        ///< blocking wait hit its deadline or a deadlock
  transient,           ///< injected retryable fault (fault.hpp)
  resource_exhausted,  ///< eager-send buffering at the destination mailbox
                       ///< would exceed Config::mailbox_cap_bytes
  crashed,             ///< this rank was killed by the fault plan, or the
                       ///< operation's target rank is dead (survivable mode)
  revoked,             ///< communicator revoked (ULFM-style Comm::revoke)
};

/// Human-readable name of an error class.
const char* errc_name(Errc e) noexcept;

/// Exception thrown for all simulated-MPI errors. what() is prefixed with
/// "[<errc_name>] " so ctest logs identify the error class without a
/// debugger.
class MpiError : public std::runtime_error {
 public:
  MpiError(Errc code, const std::string& what);

  /// Error class of this failure.
  Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

/// Throw MpiError(code) with a formatted message.
[[noreturn]] void raise(Errc code, const std::string& detail);

/// Internal invariant check; throws Errc::internal on failure.
void require_internal(bool cond, const char* what);

}  // namespace mpisim

#endif  // MPISIM_ERROR_HPP
