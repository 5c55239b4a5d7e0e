package rule

// RandomSimOp exposes the in-package random rule generator to the
// external tests.
var RandomSimOp = randomRule
