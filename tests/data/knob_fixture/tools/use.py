import pkg.mod as m
from pkg import lazy_target
from pkg.mod import aliased as al

m.build("a", width=3)
m.positional_target(5, 6)
al(flag=True)
m.WidgetConfig("w", size=2)
lazy_target(level=1)
