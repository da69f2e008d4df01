package bounds

import (
	"cmp"
	"errors"
	"slices"

	"repro/internal/tree"
)

// This file is the serialization face of Profile. A persisted corpus
// stores each tree's two histograms next to the tree; on load they are
// rebuilt from the tree's label ids and the stored ones are checked
// against them instead of trusted, so a stream that pairs a tree with
// histograms that do not describe it fails to load rather than yielding
// wrong bounds (an inflated histogram can prune a pair that matches).

// LabelCounts returns the profile's label histogram, sorted by label id.
// The slice is the profile's own; callers must not modify it.
func (p *Profile) LabelCounts() []LabelCount { return p.labels }

// BranchCounts returns the profile's binary-branch histogram, sorted by
// (label, first child, next sibling) id. The slice is the profile's own;
// callers must not modify it.
func (p *Profile) BranchCounts() []BranchCount { return p.branches }

// RestoreProfile builds the profile of t from its postorder label ids,
// as NewProfile does, and checks persisted histograms against it: labels
// and branches must hold exactly the profile's entries, in any order
// (RestoreProfile sorts them in place). A mismatch is an error.
func RestoreProfile(t *tree.Tree, ids []int32, labels []LabelCount, branches []BranchCount) (*Profile, error) {
	p := NewProfile(t, ids)
	slices.SortFunc(labels, func(a, b LabelCount) int { return cmp.Compare(a.ID, b.ID) })
	if !slices.Equal(labels, p.labels) {
		return nil, errors.New("bounds: stored label histogram does not match the tree")
	}
	slices.SortFunc(branches, compareBranch)
	if !slices.Equal(branches, p.branches) {
		return nil, errors.New("bounds: stored binary-branch histogram does not match the tree")
	}
	return p, nil
}
