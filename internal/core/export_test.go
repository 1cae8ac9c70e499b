package core

// Test configurations shared with the external test package (graph_test.go).
var (
	SmallCfg     = smallCfg
	MultiHeadCfg = multiHeadCfg
)
