package transport

import "time"

// SetEarlyBudget and SetEarlyExpiry shrink a node's early-frame buffer
// (early.go) to sizes a test can reach. Call them before any traffic.
func (n *Node) SetEarlyBudget(total int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.early.setBudget(total)
}

func (n *Node) SetEarlyExpiry(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.early.expiry = d
}
