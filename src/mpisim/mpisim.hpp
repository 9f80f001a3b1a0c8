#ifndef MPISIM_MPISIM_HPP
#define MPISIM_MPISIM_HPP

/// \file mpisim.hpp
/// Umbrella header for the simulated MPI runtime.
///
/// mpisim is a from-scratch, fiber-per-rank substitute for an MPI-2 library
/// (see DESIGN.md §2): communicators with two-sided messaging and
/// collectives, derived datatypes, and passive-target RMA windows with
/// MPI-2's strict semantics enforced. Performance is modeled in virtual
/// time against per-platform profiles.

#include "src/mpisim/clock.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/group.hpp"
#include "src/mpisim/mailbox.hpp"
#include "src/mpisim/netmodel.hpp"
#include "src/mpisim/op.hpp"
#include "src/mpisim/platform.hpp"
#include "src/mpisim/registration.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

#endif  // MPISIM_MPISIM_HPP
