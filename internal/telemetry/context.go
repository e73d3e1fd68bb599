package telemetry

import "context"

type ctxKey struct{}

// NewContext returns ctx carrying reg, so FromContext sees it down the call
// tree. A nil reg returns ctx unchanged.
func NewContext(ctx context.Context, reg *Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, reg)
}

// FromContext returns the registry carried by ctx, or nil (the no-op
// registry) when none is attached.
func FromContext(ctx context.Context) *Registry {
	reg, _ := ctx.Value(ctxKey{}).(*Registry)
	return reg
}
