package traffic

import (
	"fmt"
	"testing"
)

// TestOpenLoopIdleSkipEquivalence proves the drain-phase fast-forward is
// invisible: every open-loop golden point must digest identically with
// skipping enabled (the default) and disabled, at every width of the
// open-loop matrix.
func TestOpenLoopIdleSkipEquivalence(t *testing.T) {
	for _, og := range openMatrix() {
		og := og
		for _, width := range openWidths {
			width := width
			t.Run(fmt.Sprintf("%s/shards-%d", og.id, width), func(t *testing.T) {
				cfg := og.config()
				cfg.NoIdleSkip = true
				off := og.digest(cfg)
				cfg.NoIdleSkip = false
				on := make([]string, width)
				concurrently(width, func(i int) { on[i] = og.digest(cfg) })
				for i := range on {
					if on[i] != off {
						t.Errorf("copy %d: digest differs with drain skipping: %s vs %s", i, on[i], off)
					}
				}
			})
		}
	}
}
