package lint

import (
	"go/types"

	"mgs/internal/lint/analysis"
)

// The annotations and shard residuals are needed twice per package:
// once by ComputeFacts before any analyzer runs, and once by shardsafe
// when it reports from them. They are pure functions of the
// type-checked package and the imported facts — both identical within
// one RunPackage — so a process-wide memo keyed by the package's
// *types.Info (unique per load) shares the work. mgslint is a one-shot,
// single-threaded process; the memo lives for tens of packages at most.
type pkgCache struct {
	anns  *mgsAnnotations
	shard []*shardNode
}

var pkgCaches = map[*types.Info]*pkgCache{}

func cacheFor(pass *analysis.Pass) *pkgCache {
	c, ok := pkgCaches[pass.TypesInfo]
	if !ok {
		c = &pkgCache{}
		pkgCaches[pass.TypesInfo] = c
	}
	return c
}

func annsFor(pass *analysis.Pass) *mgsAnnotations {
	c := cacheFor(pass)
	if c.anns == nil {
		c.anns = collectAnnotations(pass)
	}
	return c.anns
}

func shardNodesFor(pass *analysis.Pass) []*shardNode {
	c := cacheFor(pass)
	if c.shard == nil {
		c.shard = buildShardNodes(pass, annsFor(pass))
	}
	return c.shard
}
