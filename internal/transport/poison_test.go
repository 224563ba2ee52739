package transport

// Every test of this package runs with released request buffers
// overwritten (poisonReleased): a handler that reads its payload after
// giving it back — or answers with a slice of it, which the at-most-once
// cache replays later — reads the poison instead of its request.
func init() { poisonReleased = true }
