package noc

// backendConfigs returns one buildable configuration per topology backend,
// tuned the way the core design points tune them.
func backendConfigs() map[string]Config {
	mesh := DefaultConfig()
	ring := DefaultConfig()
	ring.Topology = BackendRing
	ring.NumVCs = 4
	ring.BufDepth = 4
	ring.RouterStages = 2
	bj := DefaultConfig()
	bj.Topology = BackendBaseJump
	bj.FlitBytes = 64
	bj.NumVCs = 2
	bj.BufDepth = 2
	bj.RouterStages = 2
	return map[string]Config{"mesh": mesh, "ring": ring, "basejump": bj}
}
