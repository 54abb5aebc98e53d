// Package unusedignore is a CLI test fixture for -unused-ignores: both
// directives below suppress nothing. The whole suite judges both stale; a
// tool running abprace alone judges only the //abp:race-ignore, because
// the //abp:ignore mustcheck directive is addressed to an analyzer it did
// not run.
package unusedignore

//abp:race-ignore nothing here ever raced
var x = 1

//abp:ignore mustcheck nothing here ever produced a finding
var y = 2

var _ = x + y
