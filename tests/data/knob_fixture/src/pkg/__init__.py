_LAZY = {"lazy_target": "pkg.mod"}
