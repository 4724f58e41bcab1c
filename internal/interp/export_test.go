package interp

import "repro/internal/lambda"

// Test-only views of the deferred-body record, for the external
// equivalence tests.

// Funcs returns every function of root's compiled term, by ID.
func Funcs(root *CompiledFn) []*CompiledFn { return root.tab.fns }

// Escapes reports the recorded escape flag.
func (f *CompiledFn) Escapes() bool { return f.escapes }

// Term returns the function's term node.
func (f *CompiledFn) Term() *lambda.Fn { return f.term }

// Built reports whether the body's closure tree exists yet.
func (f *CompiledFn) Built() bool { return f.body.Load() != nil }

// Force builds and publishes the body as a first application would,
// returning the build's error.
func (f *CompiledFn) Force() error {
	body, err := f.build()
	if err == nil {
		f.body.CompareAndSwap(nil, &body)
	}
	return err
}
