package stats

// UseAVX2 lets the tests in package stats_test, which import lossy (an
// importer of this package), run MinMaxF32 down either path.
var UseAVX2 = &useAVX2
