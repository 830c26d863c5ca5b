package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/congest"
)

// The error taxonomy every failed request resolves to. Each sentinel is
// one failure domain with one HTTP mapping (see cmd/cycleserved):
//
//	ErrDeadline  → 408  the request's deadline expired before completion
//	ErrShed      → 429  rejected at admission: the queue (ErrOverloaded)
//	                    or the estimated queue wait vs. the deadline
//	ErrCancelled → 499  the client abandoned the request
//	ErrInternal  → 503  a detector crashed; the request is safe to retry
//
// Callers test with errors.Is; the concrete error may carry detail
// (estimates, recovered panic values) around the sentinel.
var (
	ErrDeadline  = errors.New("service: deadline exceeded")
	ErrShed      = errors.New("service: load shed")
	ErrCancelled = errors.New("service: request cancelled")
	ErrInternal  = errors.New("service: internal detector failure")
)

// classifyErr folds the raw errors of the compute stack (engine
// cancellation, context errors) into the taxonomy above. Errors already
// in the taxonomy (a contained panic is already ErrInternal), and domain
// errors like validation failures or ErrUnknownCorpus, pass through
// unchanged. ctx disambiguates cancellation from deadline expiry: a
// tripped engine CancelFlag looks the same either way, so the request
// context says which one tripped it.
func classifyErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrShed) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrCancelled) || errors.Is(err, ErrInternal) {
		return err
	}
	if errors.Is(err, congest.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() == context.DeadlineExceeded {
			return fmt.Errorf("%w: %s", ErrDeadline, err)
		}
		return fmt.Errorf("%w: %s", ErrCancelled, err)
	}
	return err
}

// countError attributes one failed request to its taxonomy counter
// (every failure also counts in errors).
func (s *Service) countError(err error) {
	atomic.AddInt64(&s.live.Errors, 1)
	switch {
	case errors.Is(err, ErrOverloaded):
		atomic.AddInt64(&s.live.Rejected, 1)
	case errors.Is(err, ErrShed):
		atomic.AddInt64(&s.live.Shed, 1)
	case errors.Is(err, ErrDeadline):
		atomic.AddInt64(&s.live.DeadlineExceeded, 1)
	case errors.Is(err, ErrCancelled):
		atomic.AddInt64(&s.live.Cancelled, 1)
	case errors.Is(err, ErrInternal):
		atomic.AddInt64(&s.live.Panics, 1)
	}
}
