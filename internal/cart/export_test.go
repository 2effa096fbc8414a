package cart

// ReferenceTrain and TreeDiff expose the reference induction to the
// session-level tests of package cart_test, which drive the steering
// loop that imports this package.
var (
	ReferenceTrain = referenceTrain
	TreeDiff       = treeDiff
)
