package trace

import "context"

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// ContextWith returns ctx carrying s as the active span. A nil span
// returns ctx unchanged, so untraced paths don't grow context chains.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartChild begins a child of the active span in ctx, using that
// span's own tracer — deep callees need no tracer plumbing; they
// inherit whichever tracer started the request. Returns nil (a no-op
// span) when ctx carries no span.
func StartChild(ctx context.Context, name string) *Span {
	return FromContext(ctx).Child(name)
}
