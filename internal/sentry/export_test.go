package sentry

import "time"

// WithProcDelay returns cfg with every admitted batch stalled for d
// while it holds its gate, for the external tests' crash helper.
func WithProcDelay(cfg ServerConfig, d time.Duration) ServerConfig {
	cfg.procDelay = d
	return cfg
}
