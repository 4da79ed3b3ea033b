package experiments

import "fdt/internal/core"

// SharedRuns is the run cache the package's experiment tests and the
// external shape suite share on purpose: the suite re-checks figures
// the TestFig* tests already simulated, and one value serves those
// runs warm. A test that needs cold runs builds its own value.
var SharedRuns = core.NewRuns(0, nil)
