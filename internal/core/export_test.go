package core

import "repro/internal/noc"

// WrapNetwork runs s on wrap(its network), the seam for test mutants that
// no Config can express. Call it before Run.
func (s *System) WrapNetwork(wrap func(noc.Network) noc.Network) { s.net = wrap(s.net) }
