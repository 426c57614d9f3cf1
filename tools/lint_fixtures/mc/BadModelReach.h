// Fixture: a model-checker header reaching a runtime host. Models are
// explored exhaustively; a dependency on rt's threads could never be.
#ifndef FIXTURE_MC_BADMODELREACH_H
#define FIXTURE_MC_BADMODELREACH_H

// LINT-EXPECT: layering
#include "rt/RtCluster.h"

namespace fixture {

inline int modelLeaksIntoRt() { return 0; }

} // namespace fixture

#endif // FIXTURE_MC_BADMODELREACH_H
