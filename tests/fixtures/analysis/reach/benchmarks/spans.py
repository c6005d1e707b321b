TARGETS = (("pkg.dispatch", "Handler", "handle"),)
