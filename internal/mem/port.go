package mem

import "repro/internal/config"

// Port is the memory interface an engine composition drives off-chip
// memory through: config.MemPort, declared below mem in the package graph
// so a hardware description can carry a port source.
type Port = config.MemPort

// The private DRAM model and the shared-chip core port are the two
// implementations.
var (
	_ Port                 = (*DRAM)(nil)
	_ Port                 = (*CorePort)(nil)
	_ config.MemPortSource = (*CorePort)(nil)
)
