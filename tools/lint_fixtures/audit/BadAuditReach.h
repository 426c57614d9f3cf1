// Fixture: a pure audit header reaching the shared effect interpreter.
// Audits replay traces offline; they must not depend on a host layer.
#ifndef FIXTURE_AUDIT_BADAUDITREACH_H
#define FIXTURE_AUDIT_BADAUDITREACH_H

// LINT-EXPECT: layering
#include "host/Replica.h"

namespace fixture {

inline int auditLeaksIntoHost() { return 0; }

} // namespace fixture

#endif // FIXTURE_AUDIT_BADAUDITREACH_H
