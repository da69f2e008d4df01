package bounds

import (
	"sort"

	"repro/internal/tree"
)

// PQGramProfile computes the pq-gram profile of a tree (Augsten, Böhlen,
// Gamper — cited as [4,5] in the RTED paper): the multiset of label
// tuples obtained by sliding, for every node, a window of q consecutive
// children under a stem of the node and its p−1 nearest ancestors. The
// tree is conceptually extended with null nodes so every node yields at
// least one gram; a null equals no label ("*" included). Profiles are
// returned sorted so multiset intersections are linear merges.
func PQGramProfile(t *tree.Tree, p, q int) []string {
	if p < 1 || q < 1 {
		panic("bounds: pq-gram parameters must be positive")
	}
	// A gram holds each label behind a one-byte prefix, so the null, the
	// empty string, is no label's.
	const null = ""
	labels := make([]string, t.Len())
	for v := range labels {
		labels[v] = "l" + t.Label(v)
	}
	var grams []string
	stem := make([]string, p) // stem[p-1] is the current node
	var walk func(v int, anc []string)
	walk = func(v int, anc []string) {
		copy(stem, anc[1:])
		stem[p-1] = labels[v]
		kids := t.Children(v)
		// Base window of q children over the null-extended child list:
		// q−1 nulls, the children, q−1 nulls (a lone leaf yields one
		// all-null base).
		ext := make([]string, 0, len(kids)+2*(q-1))
		for i := 0; i < q-1; i++ {
			ext = append(ext, null)
		}
		for _, c := range kids {
			ext = append(ext, labels[c])
		}
		for i := 0; i < q-1; i++ {
			ext = append(ext, null)
		}
		if len(kids) == 0 && q > 1 {
			ext = ext[:q] // single all-null window for leaves
		}
		if len(ext) < q {
			pad := make([]string, q-len(ext))
			for i := range pad {
				pad[i] = null
			}
			ext = append(ext, pad...)
		}
		for i := 0; i+q <= len(ext); i++ {
			grams = append(grams, encodeGram(stem, ext[i:i+q]))
		}
		next := append(append([]string(nil), anc[1:]...), labels[v])
		for _, c := range kids {
			walk(c, next)
		}
	}
	root := make([]string, p)
	for i := range root {
		root[i] = null
	}
	walk(t.Root(), root)
	sort.Strings(grams)
	return grams
}

// encodeGram flattens a stem+base tuple with unit separators (labels may
// contain any characters except the separator, which is escaped).
func encodeGram(stem, base []string) string {
	n := 0
	for _, s := range stem {
		n += len(s) + 1
	}
	for _, s := range base {
		n += len(s) + 1
	}
	b := make([]byte, 0, n)
	app := func(s string) {
		for i := 0; i < len(s); i++ {
			if s[i] == 0x1f || s[i] == 0x1e {
				b = append(b, 0x1e)
			}
			b = append(b, s[i])
		}
		b = append(b, 0x1f)
	}
	for _, s := range stem {
		app(s)
	}
	for _, s := range base {
		app(s)
	}
	return string(b)
}

// PQGram returns the normalized pq-gram distance in [0, 1]:
// 1 − 2·|P₁ ∩ P₂| / (|P₁| + |P₂|) over the pq-gram profiles. It is a
// pseudo-metric used as a fast join filter; unlike the bounds in
// bounds.Lower it does NOT lower-bound the unit-cost TED (it
// lower-bounds a fanout-weighted variant), so it serves candidate
// generation, not exact pruning.
func PQGram(f, g *tree.Tree, p, q int) float64 {
	pf := PQGramProfile(f, p, q)
	pg := PQGramProfile(g, p, q)
	inter := 0
	i, j := 0, 0
	for i < len(pf) && j < len(pg) {
		switch {
		case pf[i] == pg[j]:
			inter++
			i++
			j++
		case pf[i] < pg[j]:
			i++
		default:
			j++
		}
	}
	return 1 - 2*float64(inter)/float64(len(pf)+len(pg))
}
