// Fixture: the shared effect interpreter reaching into the runtimes it
// serves. host may use core and store; a host file that includes rt or
// sim has welded the one interpreter to one runtime's environment.
#ifndef FIXTURE_HOST_BADHOSTREACH_H
#define FIXTURE_HOST_BADHOSTREACH_H

#include "core/RaftCore.h"
#include "store/NodeStore.h"
// LINT-EXPECT: layering
#include "rt/RtNode.h"
// LINT-EXPECT: layering
#include "sim/EventQueue.h"

namespace fixture {

inline int hostLeaksIntoRuntimes() { return 0; }

} // namespace fixture

#endif // FIXTURE_HOST_BADHOSTREACH_H
