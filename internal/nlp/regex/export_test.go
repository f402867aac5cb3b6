package regex

// RefChecker gives external tests the reference-matcher oracle: see
// refChecker.
var RefChecker = refChecker
