import os
from dataclasses import dataclass, field

HOME_ENV = "PKG_HOME"


@dataclass
class WidgetConfig:
    name: str
    size: int = 4
    depth: int = 2
    cache: dict = field(default_factory=dict, init=False)


@dataclass
class WidgetReport:
    count: int = 0


def build(name, width=8, height=8, color="red", *, scale=1.0):
    return name, width, height, color, scale


def positional_target(a=1, b=2, c=3):
    return a + b + c


def spread_target(alpha=1, beta=2):
    return alpha + beta


def aliased(flag=False):
    return flag


def lazy_target(level=0):
    return level


def _private(x=1):
    return x


def home():
    return os.environ.get(HOME_ENV)
